"""Storage substrate: the database snapshot and the simulated page device."""

from .atomic import OS_FS, Filesystem, atomic_write_bytes, checksum, npz_bytes
from .disk import DiskStats, SimulatedDisk
from .persist import (
    load_collection,
    load_database,
    save_collection,
    save_database,
)

__all__ = [
    "DiskStats",
    "Filesystem",
    "OS_FS",
    "atomic_write_bytes",
    "checksum",
    "npz_bytes",
    "SimulatedDisk",
    "load_collection",
    "load_database",
    "save_collection",
    "save_database",
]
