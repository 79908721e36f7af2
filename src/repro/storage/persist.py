"""Crash-consistent snapshot persistence for collections and databases.

Saves a collection's vectors + attributes (npz + JSON sidecar) and a
database's configuration: its score and the *definition* of every index
and partitioned index — the registry name and constructor arguments the
caller gave ``create_index`` / ``create_partitioned_index``, recorded
where they were given (``VectorIndex.definition``), not sniffed back off
the built instance.  Loading restores the data exactly and replays those
definitions — every index here takes an explicit ``seed``, so a reloaded
database answers queries identically.

Layout of a snapshot directory (generation ``g``)::

    snapshot/
      collection-0000000g.npz   # vectors, alive mask (generation-named)
      attributes-0000000g.json  # columnar attribute values
      manifest.json             # commit point: generation, file map,
                                # checksums, db config (dim/score/indexes)

Crash-consistency protocol (torture-rig tentpole; see docs/torture.md):

1. Data files are written under *fresh generation-numbered names* via
   the blessed atomic writer (temp file + fsync + ``os.replace``), so
   they never clobber the files the current manifest points to.
2. ``manifest.json`` is replaced *last* — the atomic commit point.  Any
   crash before that rename leaves the old manifest pointing at the old
   (untouched) generation; any crash after it leaves the new snapshot
   fully readable.  A reopened snapshot is therefore always exactly the
   old state or the new state, never a torn hybrid.
3. After the commit, superseded generations and temp orphans are
   garbage-collected; a crash mid-GC leaves harmless unreferenced files.
4. The manifest records a CRC-32 per data file; loads verify it, so bit
   rot or a torn write surfaces as a :class:`StorageError` naming the
   offending file instead of a downstream ``JSONDecodeError``.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any

import numpy as np

from ..core.errors import StorageError
from .atomic import (
    OS_FS,
    TMP_SUFFIX,
    Filesystem,
    atomic_write_bytes,
    atomic_write_json,
    checksum,
    load_json_bytes,
    load_npz_bytes,
    npz_bytes,
    read_snapshot_file,
)

MANIFEST_VERSION = 2
MANIFEST_NAME = "manifest.json"

#: Generation-named snapshot members (prefix, suffix).
_DATA_PREFIXES = ("collection-", "attributes-")


def _jsonable(value: Any) -> Any:
    if isinstance(value, np.generic):
        return value.item()
    return value


# ------------------------------------------------------------------ manifest


def _read_manifest(path: pathlib.Path) -> dict:
    """Read + validate the snapshot manifest (errors name the file)."""
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.exists():
        raise StorageError(f"no snapshot manifest at {path}")
    manifest = load_json_bytes(manifest_path.read_bytes(), MANIFEST_NAME)
    if not isinstance(manifest, dict):
        raise StorageError(
            f"corrupt snapshot file {MANIFEST_NAME}: expected an object, "
            f"got {type(manifest).__name__}"
        )
    if manifest.get("version") != MANIFEST_VERSION:
        raise StorageError(
            f"unsupported snapshot version {manifest.get('version')!r} "
            f"in {MANIFEST_NAME}"
        )
    return manifest


def _manifest_field(manifest: dict, *keys: str) -> Any:
    """Fetch a nested manifest field; absence names manifest.json."""
    value: Any = manifest
    for key in keys:
        if not isinstance(value, dict) or key not in value:
            raise StorageError(
                f"corrupt snapshot file {MANIFEST_NAME}: missing field "
                f"{'.'.join(keys)!r}"
            )
        value = value[key]
    return value


def _current_generation(path: pathlib.Path) -> int:
    """Best-effort generation of the committed snapshot (0 if none).

    A corrupt existing manifest must not block overwriting the snapshot,
    so decode failures fall back to a fresh generation counter derived
    from the on-disk file names (never reusing a name that exists).
    """
    generation = 0
    try:
        value = _read_manifest(path).get("generation")
        if isinstance(value, int) and value >= 0:
            generation = value
    except StorageError:
        pass
    for entry in path.iterdir() if path.exists() else ():
        name = entry.name
        for prefix in _DATA_PREFIXES:
            if name.startswith(prefix):
                stem = name[len(prefix):].split(".", 1)[0]
                if stem.isdigit():
                    generation = max(generation, int(stem))
    return generation


# ------------------------------------------------------------------- writing


def _collection_payloads(collection) -> tuple[bytes, bytes]:
    """Serialize a collection to (npz bytes, attributes-JSON bytes)."""
    vectors_payload = npz_bytes(
        vectors=collection.vectors, alive=collection.alive
    )
    attributes = {
        name: [_jsonable(v) for v in collection._columns_raw[name]]
        for name in collection.attribute_names
    }
    attrs_payload = json.dumps({
        "schema": list(collection.attribute_names),
        "columns": attributes,
    }).encode("utf-8")
    return vectors_payload, attrs_payload


def _collect_garbage(
    path: pathlib.Path, keep: set[str], fs: Filesystem | None
) -> None:
    """Drop superseded generations and temp orphans (post-commit)."""
    fs = fs if fs is not None else OS_FS
    for entry in sorted(path.iterdir()):
        name = entry.name
        if name in keep or not entry.is_file():
            continue
        if name.endswith(TMP_SUFFIX) or name.startswith(_DATA_PREFIXES):
            fs.remove(entry)


def _write_snapshot(
    collection,
    directory,
    database: dict | None,
    fs: Filesystem | None,
) -> pathlib.Path:
    """Commit a snapshot: data files first, manifest last, then GC."""
    path = pathlib.Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    generation = _current_generation(path) + 1
    collection_name = f"collection-{generation:08d}.npz"
    attributes_name = f"attributes-{generation:08d}.json"
    vectors_payload, attrs_payload = _collection_payloads(collection)
    atomic_write_bytes(path / collection_name, vectors_payload, fs=fs)
    atomic_write_bytes(path / attributes_name, attrs_payload, fs=fs)
    manifest = {
        "version": MANIFEST_VERSION,
        "generation": generation,
        "files": {
            "collection": collection_name,
            "attributes": attributes_name,
        },
        "checksums": {
            collection_name: checksum(vectors_payload),
            attributes_name: checksum(attrs_payload),
        },
    }
    if database is not None:
        manifest["database"] = database
    atomic_write_json(path / MANIFEST_NAME, manifest, fs=fs)  # commit point
    _collect_garbage(
        path, keep={collection_name, attributes_name, MANIFEST_NAME}, fs=fs
    )
    return path


def save_collection(
    collection, directory, fs: Filesystem | None = None
) -> pathlib.Path:
    """Write a collection snapshot; returns the directory path."""
    return _write_snapshot(collection, directory, database=None, fs=fs)


def _index_spec(definition: tuple[str, dict[str, Any]]) -> dict:
    """Manifest form of an index definition: registry name + the
    constructor arguments JSON can carry."""
    index_type, kwargs = definition
    plain = {key: _jsonable(value) for key, value in kwargs.items()}
    return {"type": index_type, "kwargs": {
        key: value for key, value in plain.items()
        if isinstance(value, (int, float, str, bool)) or value is None
    }}


def save_database(db, directory, fs: Filesystem | None = None) -> pathlib.Path:
    """Snapshot a database: collection + score + index definitions.

    Each index is recorded as the definition it was created from.  What
    JSON cannot carry is left out, so such arguments fall back to their
    defaults on load: a ``score`` object (the database's score then) and
    devices (a shared SimulatedDisk must be re-supplied); an index put
    into ``db.indexes`` by hand is recorded by type only, and a
    partitioned index over an opaque factory not at all.  Build-time
    side inputs that are not constructor kwargs (e.g. the labels of a
    FilteredHnswIndex) are not captured — re-apply them after loading.
    """
    database = {
        "dim": db.dim,
        "score": db.score.name,
        "indexes": {
            name: _index_spec(index.definition or (index.name, {}))
            for name, index in db.indexes.items()
        },
        "partitioned": {
            name: {**_index_spec(part.definition), "attribute": part.attribute}
            for name, part in db.partitioned.items()
            if part.definition is not None
        },
    }
    return _write_snapshot(db.collection, directory, database=database, fs=fs)


# ------------------------------------------------------------------- loading


def _restore_collection(path: pathlib.Path, manifest: dict):
    """Rebuild a VectorCollection from a committed, verified snapshot."""
    # Imported here: storage must not import core at module load time
    # (core.database itself imports the storage package).
    from ..core.collection import VectorCollection

    checksums = manifest.get("checksums")
    checksums = checksums if isinstance(checksums, dict) else {}
    collection_name = _manifest_field(manifest, "files", "collection")
    attributes_name = _manifest_field(manifest, "files", "attributes")

    arrays = load_npz_bytes(
        read_snapshot_file(path, collection_name, checksums), collection_name
    )
    if "vectors" not in arrays or "alive" not in arrays:
        raise StorageError(
            f"corrupt snapshot file {collection_name}: missing "
            "'vectors'/'alive' arrays"
        )
    vectors = arrays["vectors"]
    alive = arrays["alive"]

    meta = load_json_bytes(
        read_snapshot_file(path, attributes_name, checksums), attributes_name
    )
    if not isinstance(meta, dict) or "schema" not in meta or "columns" not in meta:
        raise StorageError(
            f"corrupt snapshot file {attributes_name}: missing "
            "'schema'/'columns' fields"
        )
    schema = tuple(meta["schema"])
    columns = meta["columns"]

    # An empty collection still knows its width: rows are stored (0, dim).
    collection = VectorCollection(
        vectors.shape[1] if vectors.ndim == 2 and vectors.shape[1] else 1
    )
    if vectors.shape[0]:
        collection._schema = schema
        try:
            collection._columns_raw = {
                name: list(columns[name]) for name in schema
            }
        except (KeyError, TypeError) as exc:
            raise StorageError(
                f"corrupt snapshot file {attributes_name}: column data does "
                f"not match schema ({exc})"
            ) from exc
        collection._set_rows(vectors, alive)
    elif schema:
        collection._schema = schema
        collection._columns_raw = {name: [] for name in schema}
    return collection


def load_collection(directory):
    """Restore a collection snapshot (ids, tombstones, attributes exact)."""
    path = pathlib.Path(directory)
    if not (path / MANIFEST_NAME).exists():
        raise StorageError(f"no collection snapshot at {path}")
    manifest = _read_manifest(path)
    return _restore_collection(path, manifest)


def _spec_fields(name: str, spec: Any, *fields: str) -> list:
    """The named fields of one manifest index spec, or a StorageError."""
    try:
        return [spec[field] for field in fields]
    except (KeyError, TypeError) as exc:
        raise StorageError(
            f"corrupt snapshot file {MANIFEST_NAME}: malformed index "
            f"spec for {name!r} ({exc})"
        ) from exc


def load_database(directory, selector: str = "cost"):
    """Restore a database snapshot; indexes are rebuilt deterministically."""
    from ..core.database import VectorDatabase

    path = pathlib.Path(directory)
    if not (path / MANIFEST_NAME).exists():
        raise StorageError(f"no database manifest at {path}")
    manifest = _read_manifest(path)
    if "database" not in manifest:
        raise StorageError(
            f"snapshot at {path} is a collection snapshot, not a database "
            "snapshot (no 'database' section in manifest.json)"
        )
    collection = _restore_collection(path, manifest)
    dim = _manifest_field(manifest, "database", "dim")
    score = _manifest_field(manifest, "database", "score")
    index_specs = _manifest_field(manifest, "database", "indexes")
    db = VectorDatabase(dim=dim, score=score, selector=selector)
    db.collection = collection
    collection.bind_score(db.score)
    # Additive field: snapshots written before it hold no partitioned indexes.
    partitioned_specs = manifest["database"].get("partitioned", {})
    if not isinstance(index_specs, dict) or not isinstance(partitioned_specs, dict):
        raise StorageError(
            f"corrupt snapshot file {MANIFEST_NAME}: 'database.indexes' and "
            "'database.partitioned' must be objects"
        )
    for name, spec in index_specs.items():
        index_type, kwargs = _spec_fields(name, spec, "type", "kwargs")
        db.create_index(name, index_type, **kwargs)
    for name, spec in partitioned_specs.items():
        index_type, attribute, kwargs = _spec_fields(
            name, spec, "type", "attribute", "kwargs"
        )
        db.create_partitioned_index(name, index_type, attribute, **kwargs)
    return db
