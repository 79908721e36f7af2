"""The vector collection: vectors + structured attributes (§2.1).

A :class:`VectorCollection` stores an (n, d) float32 matrix row-aligned
with a columnar attribute store, assigning each item a dense integer id
(its insertion order).  Dense ids are the contract the index layer
builds on, and the columnar layout is what makes online bitmask
blocking (§2.3) a vectorized operation.

Deletes are tombstones (an ``alive`` mask) so ids stay stable — the
same reason real VDBMSs do out-of-place deletion (§2.3); compaction is
the collection-rebuild the tutorial attributes to bulk update
application.

The rows, the ``alive`` mask, the scan auxiliary of the bound score
(:meth:`Score.row_aux`: the row norms that turn an exact scan into one
GEMV) and the write stamps are four parallel arrays in one
amortised-doubling buffer; the public arrays are views of its first
``n`` rows.

Freshness is structural (§2.3 out-of-place updates): one write counter
advances whenever a vector is written, each row keeps the value it was
last written at, and an index keeps the :meth:`~VectorCollection.stamp`
it was built at — so the rows it does not hold at their current vector,
its :meth:`~VectorCollection.tail`, are the ones stamped later.  Deletes
ride ``alive`` and write nothing.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from ..hybrid.predicates import ColumnStore, Predicate
from ..scores import Score
from .errors import CollectionError
from .types import VECTOR_DTYPE, as_matrix, as_vector


class VectorCollection:
    """Row store of vectors with a columnar attribute side-table.

    The attribute schema is inferred from the first insert and enforced
    afterwards, keeping every column dense (no NULL handling — the
    tutorial's systems likewise require declared attribute schemas).
    """

    def __init__(self, dim: int):
        if dim <= 0:
            raise CollectionError(f"dim must be positive, got {dim}")
        self.dim = dim
        self._aux_score: Score | None = None
        self._writes = 0
        self._set_rows(np.empty((0, dim), dtype=VECTOR_DTYPE))
        self._columns_raw: dict[str, list] = {}
        self._schema: tuple[str, ...] | None = None
        self._columns_cache: ColumnStore | None = None
        self._generation = 0

    # ---------------------------------------------------------------- storage

    def _set_rows(self, vectors: np.ndarray, alive: np.ndarray | None = None) -> None:
        """Adopt ``vectors`` (and tombstones) as the whole row store —
        the one place the four parallel arrays are (re)created.  Every
        row counts as written now."""
        # Keep the row store float32 C-contiguous: every search kernel
        # (beam search gathers, blocked scans, top-k) assumes it.
        from ..index._kernels import ensure_f32c

        self._vec_buf = ensure_f32c(vectors)
        count = self._vec_buf.shape[0]
        self._alive_buf = (
            np.ones(count, dtype=bool) if alive is None
            else np.array(alive, dtype=bool)
        )
        score = self._aux_score
        self._aux_buf = None if score is None else score.row_aux(self._vec_buf)
        self._written_buf = np.full(count, self._write(), dtype=np.int64)
        self._view(count)

    def _view(self, count: int) -> None:
        self._vectors = self._vec_buf[:count]
        self._alive = self._alive_buf[:count]
        self._aux = None if self._aux_buf is None else self._aux_buf[:count]
        self._written = self._written_buf[:count]

    def __setstate__(self, state) -> None:
        # A copy or unpickle re-views its own buffers: the copied views
        # would no longer alias them, and a write through one is lost at
        # the next append.
        self.__dict__.update(state)
        self._view(self._vectors.shape[0])

    def _append_rows(self, matrix: np.ndarray) -> int:
        """Append rows (alive), doubling the buffer when it is full so a
        single-row insert is O(d) amortised, not O(n d)."""
        start = self._vectors.shape[0]
        end = start + matrix.shape[0]
        if end > self._vec_buf.shape[0]:
            capacity = max(end, 2 * self._vec_buf.shape[0])
            for name in ("_vec_buf", "_alive_buf", "_aux_buf", "_written_buf"):
                old = getattr(self, name)
                if old is not None:
                    grown = np.empty((capacity,) + old.shape[1:], dtype=old.dtype)
                    grown[:start] = old[:start]
                    setattr(self, name, grown)
        self._vec_buf[start:end] = matrix
        self._alive_buf[start:end] = True
        if self._aux_buf is not None:
            self._aux_buf[start:end] = self._aux_score.row_aux(matrix)
        self._written_buf[start:end] = self._write()
        self._view(end)
        return start

    def _write(self) -> int:
        """Advance the write counter (the tails computed at the old value
        go with it); returns the stamp of the rows being written."""
        self._writes += 1
        self._tails = {}  # write-counter value built at -> (positions, held)
        return self._writes

    def stamp(self) -> tuple[int, int]:
        """The write counter and the row count now: what an index built
        over the collection as it stands keeps, to ask for its tail later."""
        return self._writes, self._vectors.shape[0]

    def tail(self, stamp: tuple[int, int] | None) -> tuple[np.ndarray, int] | None:
        """The rows an index built at ``stamp`` does not hold at their
        current vector — rewritten since (the first ``held`` of them,
        which it holds at an old one), then inserted since — as
        ``(positions, held)``; ``None`` when nothing was written since
        (or for an index put beside the collection by hand, which
        carries no stamp).  Computed once per (stamp, counter value)."""
        if stamp is None or stamp[0] == self._writes:
            return None
        built_at, rows = stamp
        tail = self._tails.get(built_at)
        if tail is None:
            positions = np.flatnonzero(self._written > built_at)
            tail = self._tails[built_at] = (
                positions, int(np.searchsorted(positions, rows))
            )
        return tail

    def bind_score(self, score: Score | None) -> None:
        """Maintain ``score``'s scan auxiliary alongside the rows."""
        self._aux_score = score
        self._set_rows(self._vectors, self._alive)

    def row_aux(self, score: Score) -> np.ndarray | None:
        """The maintained ``score.row_aux(self.vectors)``; None when the
        collection is bound to another kind of score (or the score has no
        auxiliary), in which case a scan computes what it needs."""
        return self._aux if type(score) is type(self._aux_score) else None

    # ----------------------------------------------------------------- writes

    def insert(self, vector: np.ndarray, attributes: Mapping[str, Any] | None = None) -> int:
        """Insert one item; returns its dense id."""
        return self.insert_many([vector], [attributes] if attributes else None)[0]

    def insert_many(
        self,
        vectors: np.ndarray | Sequence[np.ndarray],
        attributes: Sequence[Mapping[str, Any]] | None = None,
    ) -> list[int]:
        """Insert a batch; returns assigned ids."""
        matrix = as_matrix(vectors, self.dim)
        count = matrix.shape[0]
        if attributes is not None and len(attributes) != count:
            raise CollectionError(
                f"{count} vectors but {len(attributes)} attribute dicts"
            )
        schema = tuple(sorted(attributes[0])) if attributes else ()
        if self._schema is None:
            self._schema = schema
            self._columns_raw = {name: [] for name in schema}
        elif schema != self._schema:
            raise CollectionError(
                f"attribute schema mismatch: expected {self._schema}, got {schema}"
            )
        for row in range(count):
            attrs = attributes[row] if attributes else {}
            if tuple(sorted(attrs)) != self._schema:
                raise CollectionError(
                    f"attribute schema mismatch at row {row}: expected"
                    f" {self._schema}, got {tuple(sorted(attrs))}"
                )
            for name in self._schema:
                self._columns_raw[name].append(attrs[name])
        start = self._append_rows(matrix)
        self._columns_cache = None
        self._generation += 1
        return list(range(start, start + count))

    def delete(self, item_id: int) -> None:
        """Tombstone an item (id stays allocated)."""
        self._check_id(item_id)
        self._alive[item_id] = False
        self._generation += 1

    def update_vector(self, item_id: int, vector: np.ndarray) -> None:
        """Replace an item's vector in place; the row joins the tail of
        every index built before now."""
        self._check_id(item_id)
        self._vectors[item_id] = as_vector(vector, self.dim)
        if self._aux is not None:
            self._aux[item_id] = self._aux_score.row_aux(
                self._vectors[item_id : item_id + 1]
            )[0]
        self._written[item_id] = self._write()
        self._generation += 1

    def compact(self) -> "VectorCollection":
        """Return a new collection without tombstoned rows (ids re-dense)."""
        fresh = VectorCollection(self.dim)
        fresh.bind_score(self._aux_score)
        keep = np.flatnonzero(self._alive)
        attrs = None
        if self._schema:
            attrs = [self.attributes(int(i)) for i in keep]
        if keep.size:
            fresh.insert_many(self._vectors[keep], attrs)
        elif self._schema is not None:
            fresh._schema = self._schema
            fresh._columns_raw = {name: [] for name in self._schema}
        return fresh

    # ------------------------------------------------------------------ reads

    def _check_id(self, item_id: int) -> None:
        if not 0 <= item_id < self._vectors.shape[0]:
            raise CollectionError(f"id {item_id} out of range")
        if not self._alive[item_id]:
            raise CollectionError(f"id {item_id} is deleted")

    def vector(self, item_id: int) -> np.ndarray:
        self._check_id(item_id)
        return self._vectors[item_id].copy()

    def attributes(self, item_id: int) -> dict[str, Any]:
        self._check_id(item_id)
        return {name: self._columns_raw[name][item_id] for name in self._schema or ()}

    @property
    def vectors(self) -> np.ndarray:
        """The full row matrix (includes tombstoned rows; see ``alive``)."""
        return self._vectors

    @property
    def alive(self) -> np.ndarray:
        """Boolean liveness mask indexed by id."""
        return self._alive

    @property
    def generation(self) -> int:
        """Mutation counter: bumps on every insert / delete / vector
        update, so anything derived from the collection's contents (plan
        choices, selectivity estimates) can be keyed to a snapshot."""
        return self._generation

    @property
    def columns(self) -> ColumnStore:
        """Columnar attribute arrays (cached; invalidated on insert)."""
        if self._columns_cache is None:
            self._columns_cache = {
                name: np.asarray(values)
                for name, values in self._columns_raw.items()
            }
        return self._columns_cache

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return self._schema or ()

    def predicate_mask(self, predicate: Predicate | None) -> np.ndarray:
        """Liveness-aware boolean mask for a predicate (online blocking).

        This is the "bitmask constructed with traditional attribute
        filtering techniques" of §2.3 block-first scan.
        """
        if predicate is None:
            return self._alive.copy()
        if not self.columns and predicate.attributes():
            raise CollectionError("collection has no attributes to filter on")
        return predicate.evaluate(self.columns) & self._alive

    def selectivity(self, predicate: Predicate | None, sample_size: int | None = None) -> float:
        """Fraction of live items passing the predicate."""
        live = len(self)
        if live == 0:
            return 0.0
        if predicate is None:
            return 1.0
        if sample_size is not None:
            return predicate.selectivity(self.columns, sample_size=sample_size)
        return np.count_nonzero(self.predicate_mask(predicate)) / live

    def __len__(self) -> int:
        return int(np.count_nonzero(self._alive))

    @property
    def capacity(self) -> int:
        """Allocated rows including tombstones."""
        return self._vectors.shape[0]

    def __iter__(self) -> Iterator[int]:
        return iter(int(i) for i in np.flatnonzero(self._alive))

    def __repr__(self) -> str:
        return (
            f"VectorCollection(dim={self.dim}, live={len(self)},"
            f" capacity={self.capacity}, attributes={list(self.attribute_names)})"
        )
