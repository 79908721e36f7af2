"""Test-side oracles for the graph kernels (differential testing).

These are the implementations the kernels in ``repro.index._graph`` and
``repro.core.batched`` replaced, kept **verbatim** as the reference the
kernels are held against — they are the oracle, not a perf baseline:

* :func:`beam_search_reference` — the scalar best-first search (Python
  ``set`` visited-set, per-neighbor heapq churn).  ``beam_search(...,
  width=1)`` under a score whose keys are its distances returns the same
  pairs and charges the same counters.
* :func:`batched_graph_search_reference` — the per-member loop over the
  shared group entries that ``batched_graph_search`` answers with one
  merged-frontier kernel call.
* :func:`robust_prune_reference` — the scalar occlusion loop (one
  ``distances`` call per candidate against the kept rows) the block-wise
  ``robust_prune`` must select the same edges as.

Do not optimize anything here.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.core.batched import _entry_positions, _group_queries, _identity_map
from repro.core.types import SearchHit, SearchStats
from repro.scores import Score


def key_aux(score: Score, vectors: np.ndarray):
    """The kernels' ``aux`` for a bare matrix, as ``GraphIndex._key_aux``
    makes it: ``(row_aux, its one-element maximum)``, None without a
    GEMV form."""
    aux = score.row_aux(vectors)
    return None if aux is None else (aux, aux.max(keepdims=True))


def beam_search_reference(
    query: np.ndarray,
    vectors: np.ndarray,
    adjacency,  # Adjacency, or a callable position -> neighbor array
    entry_points: np.ndarray | list[int],
    ef: int,
    score: Score,
    stats: SearchStats | None = None,
    allowed: np.ndarray | None = None,
    ids: np.ndarray | None = None,
) -> list[tuple[float, int]]:
    """The original scalar best-first search, kept as the differential-
    testing oracle for ``beam_search``.  Do not optimize this."""
    if ef <= 0:
        return []
    neighbors_of = adjacency if callable(adjacency) else adjacency.__getitem__
    entry = np.asarray(list(dict.fromkeys(int(e) for e in entry_points)), dtype=np.int64)
    if entry.size == 0:
        return []
    dists = score.distances(query, vectors[entry])
    if stats is not None:
        stats.distance_computations += entry.size

    def id_ok(position: int) -> bool:
        if allowed is None:
            return True
        ext = position if ids is None else int(ids[position])
        return bool(allowed[ext])

    visited: set[int] = set(int(e) for e in entry)
    # Frontier: min-heap by distance.  Results: max-heap of size ef.
    frontier: list[tuple[float, int]] = []
    results: list[tuple[float, int]] = []
    for d, e in zip(dists, entry):
        heapq.heappush(frontier, (float(d), int(e)))
        if id_ok(int(e)):
            heapq.heappush(results, (-float(d), int(e)))
    while len(results) > ef:
        heapq.heappop(results)

    while frontier:
        d_cand, cand = heapq.heappop(frontier)
        worst = -results[0][0] if len(results) >= ef else np.inf
        if d_cand > worst:
            break
        if stats is not None:
            stats.nodes_visited += 1
        neighbors = [n for n in neighbors_of(cand) if int(n) not in visited]
        if not neighbors:
            continue
        neighbors_arr = np.asarray(neighbors, dtype=np.int64)
        visited.update(int(n) for n in neighbors_arr)
        nd = score.distances(query, vectors[neighbors_arr])
        if stats is not None:
            stats.distance_computations += neighbors_arr.size
        worst = -results[0][0] if len(results) >= ef else np.inf
        for dist, node in zip(nd, neighbors_arr):
            dist = float(dist)
            node = int(node)
            if dist < worst or len(results) < ef:
                heapq.heappush(frontier, (dist, node))
                if id_ok(node):
                    heapq.heappush(results, (-dist, node))
                    if len(results) > ef:
                        heapq.heappop(results)
                    worst = -results[0][0] if len(results) >= ef else np.inf

    out = [(-d, n) for d, n in results]
    out.sort()
    return out


def robust_prune_reference(
    candidate_positions: np.ndarray,
    candidate_distances: np.ndarray,
    vectors: np.ndarray,
    max_degree: int,
    score: Score,
    alpha: float = 1.0,
) -> np.ndarray:
    """The scalar occlusion loop :func:`repro.index._graph.robust_prune`
    replaced: scan candidates by ascending distance, keep one unless an
    already-kept neighbor occludes it."""
    order = np.argsort(candidate_distances, kind="stable")
    kept: list[int] = []
    kept_vecs: list[np.ndarray] = []
    # tolist() once: per-element numpy scalar extraction costs more than
    # the loop body's bookkeeping.
    for cand, d_cand in zip(
        candidate_positions[order].tolist(), candidate_distances[order].tolist()
    ):
        if kept:
            kd = score.distances(vectors[cand], np.asarray(kept_vecs))
            if (alpha * kd < d_cand).any():
                continue  # occluded
        kept.append(cand)
        kept_vecs.append(vectors[cand])
        if len(kept) >= max_degree:
            break
    return np.asarray(kept, dtype=np.int64)


def batched_graph_search_reference(
    index,
    queries: np.ndarray,
    k: int,
    ef_search: int | None = None,
    group_size: int = 8,
    stats: SearchStats | None = None,
) -> list[list[SearchHit]]:
    """The previous per-member-loop implementation, kept as the oracle.

    Shares entries per group exactly like :func:`batched_graph_search`
    but traverses with one scalar :func:`beam_search_reference` per
    member (the solo kernel it looped over was result-identical to it).
    Do not optimize this — it is the recall oracle the differential
    tests compare the merged-frontier kernel to.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
    b = queries.shape[0]
    if b == 0:
        return []
    stats = stats if stats is not None else SearchStats()
    ef = max(k, ef_search if ef_search is not None else index.ef_search)
    assignments, centroids = _group_queries(queries, group_size)
    id_to_pos = _identity_map(index)

    out: list[list[SearchHit] | None] = [None] * b
    for group in range(centroids.shape[0]):
        members = np.flatnonzero(assignments == group)
        if members.size == 0:
            continue
        entries = _entry_positions(index, centroids[group], k, ef, stats, id_to_pos)
        for member in members:
            pairs = beam_search_reference(
                queries[member],
                index._vectors,
                index.csr_adjacency,
                entries,
                ef,
                index.score,
                stats=stats,
            )
            stats.candidates_examined += len(pairs)
            out[member] = [
                SearchHit(int(index._ids[p]), float(d)) for d, p in pairs[:k]
            ]
    return [hits if hits is not None else [] for hits in out]
