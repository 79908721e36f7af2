"""The search-index interface every index in §2.2 implements.

Conventions shared by all indexes:

* Indexes are built over **dense integer ids** ``0..n-1`` paired row-wise
  with an (n, d) float32 matrix.  The collection layer owns the mapping
  from user-facing keys to these dense ids, so indexes never deal with
  arbitrary keys, deletions, or attributes directly.
* ``search`` may receive an ``allowed`` boolean mask indexed by id; an
  index must never return a hit whose mask entry is False, and never
  fewer hits than ``min(k, allowed rows among its candidates)`` — the
  mask is applied before any shortlist, not after.  This is the hook
  block-first scans use (§2.3): the optimizer computes the bitmask with
  attribute filtering and hands it to the index scan.
* ``stats`` (when given) is mutated in place with the counters defined in
  :class:`~repro.core.types.SearchStats`, which the cost model calibrates
  against.
* Distances follow the library-wide "smaller is better" convention of
  :mod:`repro.scores.basic`.
"""

from __future__ import annotations

import abc
import time
from typing import Any, Callable

import numpy as np

from ..core.errors import IndexNotBuiltError
from ..core.types import Hits, SearchStats, as_matrix, as_vector
from ..scores import Score, get_score
from ._kernels import topk_indices
from ._scan import scan_topk


class VectorIndex(abc.ABC):
    """Abstract base class for vector search indexes."""

    #: registry name; subclasses override.
    name: str = "abstract"
    #: structural family per the tutorial's taxonomy: table | tree | graph | flat
    family: str = "abstract"
    #: ``(registry name, constructor kwargs)`` as given to
    #: :func:`~repro.index.registry.make_index` — what a snapshot records
    #: to rebuild this index; None for a hand-constructed instance.
    definition: tuple[str, dict[str, Any]] | None = None
    #: ``VectorCollection.stamp()`` when a database last (re)built this
    #: index over its collection: the rows written after it are the
    #: index's tail, which the executor scans beside it.  None for an
    #: index no database built — it is taken to hold every row.
    built_at: tuple[int, int] | None = None

    def __init__(self, score: Score | str = "l2"):
        self.score = get_score(score)
        self._ids: np.ndarray | None = None
        self._vectors: np.ndarray | None = None
        #: ``score.row_aux(self._vectors)`` for the key form of the scan
        #: and graph kernels: made by the first scan or beam, dropped by
        #: build.
        self._aux: np.ndarray | None = None
        self.build_seconds: float = 0.0

    # ------------------------------------------------------------- lifecycle

    @property
    def is_built(self) -> bool:
        return self._vectors is not None

    def _require_built(self) -> None:
        if not self.is_built:
            raise IndexNotBuiltError(f"{type(self).__name__} has not been built")

    def build(self, vectors: np.ndarray, ids: np.ndarray | None = None) -> "VectorIndex":
        """Build the index over ``vectors`` (ids default to 0..n-1).

        The stored matrix is guaranteed float32 C-contiguous
        (:func:`repro.index._kernels.ensure_f32c` layout) so the search
        kernels never hit strided gathers or silent upcasts.
        """
        from ._kernels import ensure_f32c

        matrix = ensure_f32c(as_matrix(vectors))
        if ids is None:
            ids = np.arange(matrix.shape[0], dtype=np.int64)
        else:
            ids = np.asarray(ids, dtype=np.int64)
            if ids.shape[0] != matrix.shape[0]:
                raise ValueError("ids and vectors length mismatch")
        self._ids = ids
        self._vectors = matrix
        self._aux = None
        start = time.perf_counter()
        self._build()
        self.build_seconds = time.perf_counter() - start
        return self

    @abc.abstractmethod
    def _build(self) -> None:
        """Construct internal structures from ``self._vectors``/``self._ids``."""

    # ---------------------------------------------------------------- search

    def search(
        self,
        query: np.ndarray,
        k: int,
        allowed: np.ndarray | None = None,
        stats: SearchStats | None = None,
        span: Any = None,
        **params: Any,
    ) -> Hits:
        """Return up to k nearest hits (ascending distance).

        ``params`` are index-specific search-time knobs (``nprobe``,
        ``ef_search``, ``beam_width``, ...); unknown ones raise TypeError
        inside the concrete ``_search`` so typos fail loudly.

        ``span`` (a :class:`repro.observability.Span`, or None) makes
        the scan emit a child span carrying this index's name/family and
        the :class:`SearchStats` delta attributed to the traversal.
        """
        self._require_built()
        if k <= 0:
            return Hits.EMPTY
        query = as_vector(query, self._vectors.shape[1])
        if allowed is not None:
            allowed = np.asarray(allowed, dtype=bool)
        stats = stats if stats is not None else SearchStats()
        if span is None:
            return self._search(query, k, allowed, stats, **params)
        with span.child(
            f"index:{self.name}", **self._span_attributes(k, params)
        ).attach_stats(stats) as scan_span:
            hits = self._search(query, k, allowed, stats, **params)
            scan_span.set(hits=len(hits))
            return hits

    def _span_attributes(self, k: int, params: dict[str, Any]) -> dict[str, Any]:
        """Attributes stamped on this index's search span; subclasses
        extend with their own knobs (see :class:`GraphIndex`)."""
        return {"family": self.family, "n": len(self), "k": k, **params}

    def _search(
        self,
        query: np.ndarray,
        k: int,
        allowed: np.ndarray | None,
        stats: SearchStats,
        **params: Any,
    ) -> Hits:
        """Concrete search; inputs are validated by :meth:`search`.  The
        default ranks what :meth:`_probe` names; an index that answers
        otherwise (a graph walk, a page-resident layout) overrides it."""
        positions, approx, rerank = self._probe(query, k, allowed, stats, **params)
        return self._brute_force(
            query, k, positions, allowed, stats, approx=approx, rerank=rerank
        )

    def _probe(
        self,
        query: np.ndarray,
        k: int,
        allowed: np.ndarray | None,
        stats: SearchStats,
        **params: Any,
    ) -> tuple[np.ndarray | None, Callable[[Any], np.ndarray] | None, int] | None:
        """The rows a flat / table / tree search ranks, as
        ``(positions, approx, rerank)`` for :meth:`_brute_force`
        (positions None: every row), charging the probe's own work;
        None for an index whose answer is no ranking of its rows.
        Unknown ``params`` raise TypeError."""
        return None

    def candidates(
        self,
        query: np.ndarray,
        k: int,
        allowed: np.ndarray | None = None,
        stats: SearchStats | None = None,
        **params: Any,
    ) -> np.ndarray | None:
        """The ids whose exact scan is this index's ``search`` answer:
        the probed cells, leaves or buckets, or a re-ranked shortlist —
        the rows ``allowed`` keeps among them, charged exactly what
        ``search`` charges (their exact scoring included).  None, charging
        nothing, where the answer is no exact scan of rows: a graph walk,
        a page layout, approximate distances with no re-rank.

        The executor ranks these ids over the collection's own rows
        together with the index's tail, in one scan."""
        self._require_built()
        query = as_vector(query, self._vectors.shape[1])
        if allowed is not None:
            allowed = np.asarray(allowed, dtype=bool)
        stats = stats if stats is not None else SearchStats()
        probe = self._probe(query, k, allowed, stats, **params)
        if probe is None:
            return None
        positions, approx, rerank = probe
        if approx is not None:
            if not rerank:
                return None
            shortlist = self._shortlist(k, positions, approx, rerank, allowed, stats)
            return shortlist.ids if isinstance(shortlist, Hits) else self._ids[shortlist]
        keep = self._admit(positions, allowed, stats)
        ids = self._ids if positions is None else self._ids[positions]
        if keep is not None:
            ids = ids[keep]
        # What the exact scan of ids charges.
        stats.distance_computations += ids.shape[0]
        stats.candidates_examined += ids.shape[0]
        return ids

    def range_search(
        self,
        query: np.ndarray,
        radius: float,
        allowed: np.ndarray | None = None,
        stats: SearchStats | None = None,
        **params: Any,
    ) -> Hits:
        """All hits with distance <= radius (default: oversampled k-NN).

        Indexes with a natural range traversal override this; the generic
        fallback repeatedly doubles k until the farthest hit exceeds the
        radius or the whole collection has been ranked.
        """
        self._require_built()
        n = self._vectors.shape[0]
        k = 64
        while True:
            hits = self.search(query, min(k, n), allowed=allowed, stats=stats, **params)
            if len(hits) < min(k, n) or (hits and hits.distances[-1] > radius) or k >= n:
                return hits.where(hits.distances <= radius)
            k *= 2

    # ------------------------------------------------------------- utilities

    def _admit(
        self,
        positions: np.ndarray | None,
        allowed: np.ndarray | None,
        stats: SearchStats,
    ) -> np.ndarray | None:
        """The one mask rule: the keep-mask of candidate rows (positions;
        None: every row) under ``allowed`` — None when nothing is masked —
        charged one evaluation per candidate and one rejection per refusal."""
        if allowed is None:
            return None
        ids = self._ids if positions is None else self._ids[positions]
        keep = allowed[ids]
        stats.predicate_evaluations += ids.shape[0]
        stats.predicate_rejections += ids.shape[0] - int(np.count_nonzero(keep))
        return keep

    def _shortlist(
        self,
        k: int,
        positions: np.ndarray | None,
        approx: Callable[[Any], np.ndarray],
        rerank: int,
        allowed: np.ndarray | None,
        stats: SearchStats,
    ) -> np.ndarray | Hits:
        """An index's approximate stage (ADC / SQ / Hamming) over its
        candidates (row positions; None: every row).  They meet
        ``allowed`` *first*, so no stage can cut the list before the mask
        has spoken; ``approx(pick)`` returns the approximate distances of
        the candidates ``pick`` indexes (all of them, or the survivors)
        and charges its own work.  With ``rerank`` = 0 they are the
        answer (a :class:`Hits`, as when no candidate is left); otherwise
        the positions of their ``max(k, rerank)`` nearest, charged the
        exact re-score."""
        keep = self._admit(positions, allowed, stats)
        pick = slice(None)
        if keep is not None:
            pick = np.flatnonzero(keep)
            positions = pick if positions is None else positions[pick]
        if (len(self) if positions is None else positions.shape[0]) == 0:
            return Hits.EMPTY
        distances = approx(pick)
        if not rerank:
            order = topk_indices(distances, k)
            picked = order if positions is None else positions[order]
            return Hits(self._ids[picked], distances[order])
        shortlist = topk_indices(distances, max(k, rerank), sort=False)
        positions = shortlist if positions is None else positions[shortlist]
        # Re-scoring is distance work on candidates already counted.
        stats.distance_computations += positions.shape[0]
        return positions

    def _brute_force(
        self,
        query: np.ndarray,
        k: int,
        candidate_positions: np.ndarray | None,
        allowed: np.ndarray | None,
        stats: SearchStats,
        radius: float | None = None,
        approx: Callable[[Any], np.ndarray] | None = None,
        rerank: int = 0,
    ) -> Hits:
        """The ranking tail every flat / table / tree search ends in.

        Candidates (row positions; None: every row) meet ``allowed``
        *first* (through :meth:`_shortlist` when an approximate stage
        ``approx`` comes between); the survivors are then scored exactly
        through the shared scan kernel: the ``k`` nearest, or everything
        within ``radius``.
        """
        positions = candidate_positions
        if approx is None:
            keep = self._admit(positions, allowed, stats)
            if keep is not None and positions is not None:
                positions, keep = positions[keep], None
        else:
            positions = self._shortlist(k, positions, approx, rerank, allowed, stats)
            if isinstance(positions, Hits):
                return positions
            keep = stats = None  # the re-score is charged
        if self._aux is None:
            self._aux = self.score.row_aux(self._vectors)
        return scan_topk(
            self.score, query, self._vectors, k, aux=self._aux, ids=self._ids,
            keep=keep, positions=positions, radius=radius, stats=stats,
        )

    def memory_bytes(self) -> int:
        """Approximate resident size of the structure (vectors excluded)."""
        return 0

    def __len__(self) -> int:
        return 0 if self._vectors is None else self._vectors.shape[0]

    @property
    def dim(self) -> int:
        self._require_built()
        return self._vectors.shape[1]

    def __repr__(self) -> str:
        state = f"n={len(self)}" if self.is_built else "unbuilt"
        return f"{type(self).__name__}({state}, score={self.score.name})"
