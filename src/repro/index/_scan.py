"""The one exact-scan kernel (§2.1 table scan: similarity projection + top-k).

Every *exact* scan in the system is one call of :func:`scan_topk`: the
``brute_force`` and ``pre_filter`` plans, batched and range execution,
the flat index, and the bucket probes of the IVF / tree / hash indexes
(``VectorIndex._brute_force``).  It lives in the index layer because
that is the lowest layer that scans; ``core`` and ``hybrid`` import it.

One query makes one pass over the row matrix: ``Score.keys`` ranks the
rows with a single float32 GEMV against the cached per-row auxiliary
(``Score.row_aux``: the norms), masked-out rows get a ``+inf`` key
instead of being copied away, ``argpartition`` selects ``k + SCAN_SLACK``
rows, and only those are re-scored with ``Score.distances`` — so the
distances returned are bit-for-bit the ones a plain scan returns.  The
re-score also *certifies* the answer: it is accepted only when the key
gap to the unselected rows exceeds ``Score.key_margin`` (the rounding the
GEMV form can introduce); otherwise the scan ranks by ``distances``
directly.  The rows a scan does copy (an IVF probe's cells, a sparse
mask's survivors, the re-scored selection) are gathered with
``ndarray.take``: the same bytes as fancy indexing at well under its
cost.  See ``docs/performance.md`` ("Scan kernel", "Row gathers").
"""

from __future__ import annotations

import numpy as np

from ..core.types import Hits, SearchStats
from ..scores import Score
from ._kernels import topk_indices

#: Rows selected by key beyond ``k`` before the exact re-score.  The
#: re-score certifies the answer (``Score.key_margin``), so the slack
#: only sets how rarely a certificate fails; 16 rows cost ~2 us to score.
SCAN_SLACK = 16
#: A mask keeping fewer than 1/2.5 = 40 % of the rows is scanned as a
#: gather of the survivors; a denser one as the whole matrix with the
#: masked keys set to +inf.  The measured crossover of a ``take`` gather
#: against the in-place scan sits at 40-45 % of the rows at d = 64 (10 000
#: and 20 000 rows, one query; docs/performance.md, "Row gathers").
GATHER_BELOW = 2.5
#: Selecting by key beats scoring every row only once the re-scored
#: ``k + SCAN_SLACK`` are under 1/16 of the rows (measured crossover at
#: d = 64: ~400 rows for k = 10); smaller scans score everything exactly.
KEYS_PAY_OFF = 16
#: Query-block size of the batched scan: bounds the (block, n) key matrix.
BATCH_BLOCK = 256


def _scan_rows(vectors, aux, keep, positions, queries, stats):
    """Resolve what a scan reads: ``(rows, aux, keep, positions, count)``.

    ``keep`` (a boolean mask over ``vectors``) and ``positions`` (row
    numbers) are alternative restrictions.  A sparse mask becomes a
    gather of its survivors; a dense one stays a mask, so the matrix is
    never copied.  Charges the ``count`` scored rows to ``stats`` — the
    logical work, whatever the physical pass touched.
    """
    count = vectors.shape[0]
    if keep is not None:
        count = int(np.count_nonzero(keep))
        if count * GATHER_BELOW < vectors.shape[0]:
            positions, keep = np.flatnonzero(keep), None
    if positions is not None:
        count = positions.shape[0]
        vectors = vectors.take(positions, axis=0)
        aux = None if aux is None else aux.take(positions)
    if stats is not None:
        stats.distance_computations += count * queries
        stats.candidates_examined += count * queries
    return vectors, aux, keep, positions, count


def _exact_rank(score, query, rows, keep, k, radius=None):
    """Rank ``rows`` by ``score.distances`` itself: (order, distances)."""
    dists = score.distances(query, rows)
    if radius is not None:
        within = dists <= radius
        if keep is not None:
            within &= keep
        order = np.flatnonzero(within)
        order = order[np.argsort(dists[order], kind="stable")]
    else:
        if keep is not None:
            dists[~keep] = np.inf
        order = topk_indices(dists, k)
    return order, dists[order]


def _rank(score, query, rows, aux, keys, keep, k):
    """Top-``k`` of one query from its ``keys``.

    Masked-out rows get a ``+inf`` key — the matrix is never copied.
    Selects ``k + SCAN_SLACK`` rows by key, re-scores exactly those with
    ``score.distances`` — so the distances returned are the ones a plain
    scan returns — and accepts the answer only when the key gap to the
    unselected rows exceeds ``score.key_margin``; otherwise (near-ties at
    the boundary, catastrophic cancellation) it ranks exactly.
    """
    if keep is not None:
        np.copyto(keys, np.inf, where=~keep)
    selected = topk_indices(keys, k + SCAN_SLACK, sort=False)
    exact = score.distances(query, rows.take(selected, axis=0))
    order = np.argsort(exact, kind="stable")[:k]
    selected_keys = keys[selected]
    if selected_keys[order].max() + score.key_margin(query, aux) <= selected_keys.max():
        return selected[order], exact[order]
    return _exact_rank(score, query, rows, keep, k)


def scan_topk(
    score: Score,
    query: np.ndarray,
    vectors: np.ndarray,
    k: int | None,
    *,
    aux: np.ndarray | None = None,
    ids: np.ndarray | None = None,
    keep: np.ndarray | None = None,
    positions: np.ndarray | None = None,
    radius: float | None = None,
    stats: SearchStats | None = None,
):
    """The exact scan: the ``k`` nearest rows of ``vectors``, ascending.

    ``query`` is one vector (-> :class:`Hits`) or a (b, d) block sharing
    one key GEMM (-> a ``Hits`` per query).  ``aux`` is the cached
    ``score.row_aux(vectors)`` (computed here when absent); ``ids`` names
    the rows (default: their positions); ``keep`` (a boolean row mask) or
    ``positions`` restricts the scan.  With ``radius`` the scan instead
    returns every row within it (``k`` ignored).
    """
    single = query.ndim == 1
    queries = np.atleast_2d(query)
    rows, aux, keep, positions, count = _scan_rows(
        vectors, aux, keep, positions, queries.shape[0], stats
    )
    if count == 0:
        return Hits.EMPTY if single else [Hits.EMPTY] * queries.shape[0]
    if radius is None:
        k = min(k, count)
    by_keys = radius is None and count > KEYS_PAY_OFF * (k + SCAN_SLACK)
    if by_keys and aux is None:
        aux = score.row_aux(rows)
    if not by_keys or aux is None:  # small scan, range scan, or no GEMV form
        ranked = [
            _exact_rank(score, member, rows, keep, k, radius) for member in queries
        ]
    elif single:
        ranked = [_rank(score, query, rows, aux, score.keys(query, rows, aux), keep, k)]
    else:
        ranked = [
            _rank(score, member, rows, aux, keys, keep, k)
            for lo in range(0, queries.shape[0], BATCH_BLOCK)
            for member, keys in zip(
                queries[lo : lo + BATCH_BLOCK],
                score.keys(queries[lo : lo + BATCH_BLOCK], rows, aux),
            )
        ]
    results = []
    for order, dists in ranked:
        if positions is not None:
            order = positions[order]
        results.append(Hits(order if ids is None else ids[order], dists))
    return results[0] if single else results
