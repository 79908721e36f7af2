"""Tests for the simulated page device."""

import pytest

from repro.core.errors import StorageError
from repro.storage import SimulatedDisk


class TestSimulatedDisk:
    def test_allocate_write_read(self):
        disk = SimulatedDisk(page_size=64)
        page = disk.allocate()
        disk.write_page(page, b"hello")
        assert disk.read_page(page) == b"hello"

    def test_io_accounting(self):
        disk = SimulatedDisk(page_size=64)
        page = disk.allocate()
        disk.write_page(page, b"abc")
        disk.read_page(page)
        disk.read_page(page)
        assert disk.stats.writes == 1
        assert disk.stats.reads == 2
        assert disk.stats.bytes_read == 6

    def test_page_overflow_rejected(self):
        disk = SimulatedDisk(page_size=4)
        page = disk.allocate()
        with pytest.raises(StorageError, match="overflow"):
            disk.write_page(page, b"too long")

    def test_unallocated_access_rejected(self):
        disk = SimulatedDisk()
        with pytest.raises(StorageError):
            disk.read_page(99)
        with pytest.raises(StorageError):
            disk.write_page(99, b"")

    def test_stats_reset(self):
        disk = SimulatedDisk()
        page = disk.allocate()
        disk.write_page(page, b"x")
        disk.stats.reset()
        assert disk.stats.writes == 0

