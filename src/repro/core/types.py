"""Core value types shared across the VDBMS.

The types here are deliberately small, immutable where practical, and free
of behaviour beyond validation and convenience accessors, so that every
layer (indexes, operators, executor, distributed nodes) can exchange them
without import cycles.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import Any, ClassVar

import numpy as np

from .errors import DimensionMismatchError

# Dtype used for all stored vectors.  float32 matches what real VDBMSs
# (Faiss, Milvus, pgvector) store and halves memory vs float64.
VECTOR_DTYPE = np.float32


def as_matrix(vectors: Any, dim: int | None = None) -> np.ndarray:
    """Coerce input into a contiguous (n, d) float32 matrix.

    Accepts a single vector (returned as shape (1, d)), a sequence of
    vectors, or an ndarray.  Raises :class:`DimensionMismatchError` when
    ``dim`` is given and does not match.
    """
    arr = np.asarray(vectors, dtype=VECTOR_DTYPE)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError(f"expected 1-D or 2-D input, got shape {arr.shape}")
    if dim is not None and arr.shape[1] != dim:
        raise DimensionMismatchError(dim, arr.shape[1])
    return np.ascontiguousarray(arr)


def as_vector(vector: Any, dim: int | None = None) -> np.ndarray:
    """Coerce input into a contiguous (d,) float32 vector."""
    arr = np.asarray(vector, dtype=VECTOR_DTYPE)
    if arr.ndim == 2 and arr.shape[0] == 1:
        arr = arr[0]
    if arr.ndim != 1:
        raise ValueError(f"expected a single vector, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise DimensionMismatchError(dim, arr.shape[0])
    return np.ascontiguousarray(arr)


@dataclass(frozen=True, slots=True)
class SearchHit:
    """A single search result: an item id and its distance to the query.

    ``distance`` is always "smaller is better"; similarity scores such as
    inner product are negated internally so that every layer sorts the
    same way (see :mod:`repro.scores.basic`).
    """

    id: int
    distance: float

    def __lt__(self, other: "SearchHit") -> bool:
        return (self.distance, self.id) < (other.distance, other.id)


@dataclass(frozen=True, slots=True, eq=False)
class Hits(Sequence[SearchHit]):
    """The one result representation: aligned ``ids`` (int64) and
    ``distances`` (float64 — the upcast ``float(d)`` makes), ascending by
    distance, read-only.

    Every kernel returns one and every layer forwards or combines it as
    arrays (:meth:`topk`, :meth:`merge`, :meth:`where`, slicing); it *is*
    a ``Sequence[SearchHit]``, and a :class:`SearchHit` object exists only
    when a caller indexes or iterates it.
    """

    ids: np.ndarray
    distances: np.ndarray
    #: The empty result (immutable, so shared).
    EMPTY: ClassVar["Hits"]

    def __post_init__(self):
        for name, dtype in (("ids", np.int64), ("distances", np.float64)):
            # A read-only view: the caller's own array keeps its flags.
            column = np.asarray(getattr(self, name), dtype=dtype).view()
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        if self.ids.ndim != 1 or self.ids.shape != self.distances.shape:
            raise ValueError("ids and distances must be aligned 1-D arrays")

    @classmethod
    def topk(cls, ids: Any, distances: np.ndarray, k: int) -> "Hits":
        """The ``k`` smallest-distance hits of parallel id / distance
        arrays, by the shared partition-based selection
        (:func:`repro.index._kernels.topk_indices`): O(n + k log k)."""
        from ..index._kernels import topk_indices  # local: avoids an import cycle

        distances = np.asarray(distances)
        order = topk_indices(distances, k)
        return cls(np.asarray(ids)[order], distances[order])

    @classmethod
    def merge(cls, parts: Iterable["Hits"], k: int | None = None) -> "Hits":
        """The gather of §2.3: the ``k`` best (all, when None) of several
        results in ``(distance, id)`` order — what sorting their
        :class:`SearchHit` objects gives."""
        parts = list(parts)
        if not parts:
            return cls.EMPTY
        if len(parts) == 1 and (k is None or len(parts[0]) <= k):
            # The common gather (one partition) is its part unless two
            # distances tie — checked without a numpy call.
            distances = parts[0].distances.tolist()
            if len(set(distances)) == len(distances):
                return parts[0]
        ids = np.concatenate([part.ids for part in parts])
        distances = np.concatenate([part.distances for part in parts])
        order = np.lexsort((ids, distances))[:k]
        return cls(ids[order], distances[order])

    @classmethod
    def from_hits(cls, hits: Iterable[SearchHit]) -> "Hits":
        """``hits`` (in the order given) as arrays; a ``Hits`` is itself."""
        if isinstance(hits, cls):
            return hits
        hits = list(hits)
        return cls([h.id for h in hits], [h.distance for h in hits])

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[float, int]], ids: np.ndarray) -> "Hits":
        """A traversal's sorted ``(distance, position)`` pool, named by ``ids``."""
        return cls(ids[[pos for _, pos in pairs]], [d for d, _ in pairs])

    def where(self, keep: np.ndarray) -> "Hits":
        """The hits a boolean mask aligned with them keeps, in order —
        ``hits.where(allowed[hits.ids])`` filters by id."""
        return Hits(self.ids[keep], self.distances[keep])

    def __reduce__(self):  # a copy or unpickle re-freezes its arrays
        return Hits, (self.ids, self.distances)

    def __len__(self) -> int:
        return self.ids.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Hits(self.ids[i], self.distances[i])
        return SearchHit(int(self.ids[i]), float(self.distances[i]))

    def __iter__(self) -> Iterator[SearchHit]:
        return map(SearchHit, self.ids.tolist(), self.distances.tolist())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (Hits, list, tuple)):
            return list(self) == list(other)
        return NotImplemented


Hits.EMPTY = Hits((), ())


@dataclass(slots=True)
class SearchResult:
    """An ordered result set for one query, plus execution statistics."""

    hits: Hits
    stats: "SearchStats" = field(default_factory=lambda: SearchStats())

    def __post_init__(self):
        self.hits = Hits.from_hits(self.hits)

    @property
    def ids(self) -> list[int]:
        return self.hits.ids.tolist()

    @property
    def distances(self) -> list[float]:
        return self.hits.distances.tolist()

    @property
    def is_partial(self) -> bool:
        """True when some routed shards failed and the result set is a
        best-effort answer over the reachable fraction of the data."""
        return self.stats.partial

    @property
    def coverage_fraction(self) -> float:
        return self.stats.coverage_fraction

    def __len__(self) -> int:
        return len(self.hits)

    def __iter__(self) -> Iterator[SearchHit]:
        return iter(self.hits)

    def __getitem__(self, i: int) -> SearchHit:
        return self.hits[i]

    def __repr__(self) -> str:
        preview = ", ".join(
            f"{h.id}@{h.distance:.3g}" for h in self.hits[:5]
        )
        more = f", ... +{len(self.hits) - 5}" if len(self.hits) > 5 else ""
        plan = f" plan={self.stats.plan_name!r}" if self.stats.plan_name else ""
        part = (
            f" PARTIAL coverage={self.stats.coverage_fraction:.2f}"
            if self.stats.partial else ""
        )
        return f"SearchResult([{preview}{more}]{plan}{part})"


@dataclass(slots=True)
class SearchStats:
    """Counters accumulated while executing one query.

    These are the quantities the tutorial's cost models reason about:
    the number of similarity computations, index nodes visited, disk page
    reads, and candidates filtered by predicates.
    """

    distance_computations: int = 0
    nodes_visited: int = 0
    page_reads: int = 0
    candidates_examined: int = 0
    predicate_evaluations: int = 0
    predicate_rejections: int = 0
    plan_name: str = ""
    elapsed_seconds: float = 0.0
    # Degraded-mode accounting (distributed/faulty execution, §2.3):
    # ``partial`` marks a result produced with less than full coverage;
    # ``coverage_fraction`` is the fraction of routed shards that
    # answered (1.0 for single-node execution).
    partial: bool = False
    coverage_fraction: float = 1.0
    shards_ok: int = 0
    shards_failed: int = 0
    # How many per-query stats objects were merged into this one (1 for a
    # fresh object).  Batch provenance: merged counters are sums, so
    # batch-level *averages* are ``counter / merged_count``.
    merged_count: int = 1

    def merge(self, other: "SearchStats") -> None:
        """Accumulate another stats object into this one (for batches)."""
        self.distance_computations += other.distance_computations
        self.nodes_visited += other.nodes_visited
        self.page_reads += other.page_reads
        self.candidates_examined += other.candidates_examined
        self.predicate_evaluations += other.predicate_evaluations
        self.predicate_rejections += other.predicate_rejections
        self.elapsed_seconds += other.elapsed_seconds
        self.partial = self.partial or other.partial
        self.coverage_fraction = min(
            self.coverage_fraction, other.coverage_fraction
        )
        self.shards_ok += other.shards_ok
        self.shards_failed += other.shards_failed
        self.merged_count += other.merged_count

    def averages(self) -> dict[str, float]:
        """Per-constituent-query means of the counter fields.

        For a merged batch object this is the batch-level average; for a
        fresh (``merged_count == 1``) object it is the counters as-is.
        """
        n = max(1, self.merged_count)
        return {
            "distance_computations": self.distance_computations / n,
            "nodes_visited": self.nodes_visited / n,
            "page_reads": self.page_reads / n,
            "candidates_examined": self.candidates_examined / n,
            "predicate_evaluations": self.predicate_evaluations / n,
            "predicate_rejections": self.predicate_rejections / n,
            "elapsed_seconds": self.elapsed_seconds / n,
        }

    def __repr__(self) -> str:
        parts = []
        if self.plan_name:
            parts.append(f"plan={self.plan_name!r}")
        for label, value in (
            ("dist", self.distance_computations),
            ("nodes", self.nodes_visited),
            ("pages", self.page_reads),
            ("cand", self.candidates_examined),
            ("pred", self.predicate_evaluations),
            ("rej", self.predicate_rejections),
        ):
            if value:
                parts.append(f"{label}={value}")
        if self.elapsed_seconds:
            parts.append(f"elapsed={self.elapsed_seconds * 1e3:.3f}ms")
        if self.partial:
            parts.append(f"PARTIAL coverage={self.coverage_fraction:.2f}")
        if self.shards_ok or self.shards_failed:
            parts.append(f"shards={self.shards_ok}ok/{self.shards_failed}failed")
        if self.merged_count > 1:
            parts.append(f"merged={self.merged_count}")
        return f"SearchStats({', '.join(parts)})"
