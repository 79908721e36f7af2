"""Visit-first scan (§2.3): predicate-aware graph traversal.

Where block-first scan masks the index and searches as usual,
visit-first scan changes the *scan operator itself*: the best-first
traversal considers attribute values on visited nodes.  Following HQANN
[87] and Filtered-DiskANN-style operators [43]:

* the result set only admits predicate-passing nodes (single-stage
  filtering — no post-pass);
* blocked nodes remain traversable (preserving connectivity), but their
  frontier priority is *inflated* by ``penalty`` so expansion prefers
  passing nodes — the "scan prefers nodes that satisfy the predicate"
  bias that avoids backtracking at high selectivity;
* termination requires k passing results or frontier exhaustion within
  a node budget, so highly selective predicates degrade gracefully
  instead of looping.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..core.types import Hits, SearchStats
from ..hybrid.predicates import Predicate
from ..index.graph_base import GraphIndex
from ..scores import Score


def visit_first_search(
    vectors: np.ndarray,
    slots: np.ndarray,
    entry_points: list[int],
    ids: np.ndarray,
    mask: np.ndarray,
    query: np.ndarray,
    k: int,
    score: Score,
    ef: int = 64,
    penalty: float = 1.5,
    max_visits: int | None = None,
    stats: SearchStats | None = None,
) -> Hits:
    """Predicate-biased best-first search over a graph.

    Parameters
    ----------
    slots:
        A graph index's ``(n, R)`` slot matrix, rows padded with ``n``.
    mask:
        Boolean allowed-mask over external ids.
    penalty:
        Multiplier applied to blocked nodes' frontier priority (> 1
        de-prioritizes them without disconnecting the search).
    max_visits:
        Expansion budget; defaults to ``8 * ef``.
    """
    stats = stats if stats is not None else SearchStats()
    if not entry_points:
        return Hits.EMPTY
    ef = max(ef, k)
    budget = max_visits if max_visits is not None else 8 * ef
    n = vectors.shape[0]
    ids = np.asarray(ids)
    mask = np.asarray(mask, dtype=bool)

    def passes_batch(positions: np.ndarray) -> np.ndarray:
        """Vectorized predicate check with reference-equal accounting."""
        ok = mask[ids[positions]]
        stats.predicate_evaluations += positions.size
        stats.predicate_rejections += int(np.count_nonzero(~ok))
        return ok

    entry = np.asarray(
        list(dict.fromkeys(int(e) for e in entry_points)), dtype=np.int64
    )
    dists = score.distances(query, vectors[entry])
    stats.distance_computations += entry.size

    # Bitmap visited-set + batched gathers (same kernel shape as
    # repro.index._graph.beam_search); the padding n counts as visited.
    visited = np.zeros(n + 1, dtype=bool)
    visited[n] = True
    visited[entry] = True
    frontier: list[tuple[float, int]] = []  # (priority, position)
    results: list[tuple[float, int]] = []  # max-heap of passing nodes
    entry_ok = passes_batch(entry)
    for i in range(entry.size):
        d, pos = float(dists[i]), int(entry[i])
        heapq.heappush(frontier, (d if entry_ok[i] else d * penalty, pos))
        if entry_ok[i]:
            heapq.heappush(results, (-d, pos))
    while len(results) > ef:
        heapq.heappop(results)

    visits = 0
    while frontier and visits < budget:
        priority, pos = heapq.heappop(frontier)
        worst = -results[0][0] if len(results) >= ef else np.inf
        if priority > worst * penalty and len(results) >= k:
            break
        visits += 1
        stats.nodes_visited += 1
        neighbors = slots[pos]
        fresh = neighbors[~visited[neighbors]]
        if fresh.size == 0:
            continue
        visited[fresh] = True
        nd = score.distances(query, vectors[fresh])
        stats.distance_computations += fresh.size
        ok_arr = passes_batch(fresh)
        for i in range(fresh.size):
            d, nb, ok = float(nd[i]), int(fresh[i]), bool(ok_arr[i])
            worst = -results[0][0] if len(results) >= ef else np.inf
            if d < worst or len(results) < ef or (not ok and d * penalty < worst):
                heapq.heappush(frontier, (d if ok else d * penalty, nb))
                if ok:
                    heapq.heappush(results, (-d, nb))
                    if len(results) > ef:
                        heapq.heappop(results)

    ordered = sorted((-d, pos) for d, pos in results)
    stats.candidates_examined += len(ordered)
    return Hits.from_pairs(ordered[:k], ids)


def visit_first_scan(
    index,
    collection,
    query: np.ndarray,
    k: int,
    predicate: Predicate | None,
    ef: int = 64,
    penalty: float = 1.5,
    stats: SearchStats | None = None,
    span=None,
) -> Hits:
    """Single-stage filtered search on a :class:`GraphIndex`, over its
    slot matrix from its entry point."""
    from ..observability.tracing import NOOP_SPAN

    if not isinstance(index, GraphIndex):
        raise TypeError(
            f"visit-first scan requires a graph index, got {type(index).__name__}"
        )
    stats = stats if stats is not None else SearchStats()
    span = span if span is not None else NOOP_SPAN
    with span.child("bitmask").attach_stats(stats):
        mask = collection.predicate_mask(predicate)
    with span.child(
        "traversal", ef=ef, penalty=penalty, index=index.name
    ).attach_stats(stats) as walk_span:
        hits = visit_first_search(
            index._vectors,
            index.slots,
            [index.entry_point],
            index._ids,
            mask,
            query,
            k,
            index.score,
            ef=ef,
            penalty=penalty,
            stats=stats,
        )
        walk_span.set(hits=len(hits))
    return hits
