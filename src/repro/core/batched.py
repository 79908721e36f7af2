"""Batched graph search with shared traversal (§2.3 batched queries).

"Several techniques have been proposed to exploit commonalities between
the queries in order to speed up processing the batch" [50, 79].  For
graph indexes the exploitable commonality is the *route*: similar
queries descend through the same region, so both the entry-finding work
and the traversal itself can be shared.

:func:`batched_graph_search` clusters the batch (k-means over the query
vectors), runs one full search per cluster centroid, seeds each member
query from the centroid's results — skipping the per-query descent —
and then answers the whole group with **one shared-frontier kernel
call** (:func:`~repro.index._graph.batched_beam_search`): the group
expands a single merged frontier over the index's adjacency — per
round, one concatenated neighbor gather, one ``Score.keys`` pass over
the query block (one GEMM) against every member, and one vectorized
prune of every member's top-``ef`` pool.  Dissimilar queries land in
different clusters, so sharing never forces unrelated routes together.

The merged traversal is not bitwise-identical to a per-member loop of
the solo kernel over the same shared entries (its beam bound is the
loosest member's, so it explores a superset; pool tie-breaking differs),
so the differential contract is *bounded recall*: on clustered batches
the kernel's recall against exact ground truth must be at or above that
loop's (the oracle in ``tests/oracles.py``; see
``tests/test_multivector_batched.py``), and it stays deterministic for
fixed inputs.
"""

from __future__ import annotations

import math

import numpy as np

from ..index._graph import batched_beam_search
from ..quantization.kmeans import kmeans
from .types import Hits, SearchStats


def _group_queries(queries: np.ndarray, group_size: int):
    """K-means the batch into shared-route groups.

    Returns (assignments, centroids); trivial groups (one query each)
    skip the clustering pass entirely.
    """
    b = queries.shape[0]
    num_groups = max(1, math.ceil(b / group_size))
    if num_groups >= b:
        return np.arange(b), queries.astype(np.float64)
    result = kmeans(queries.astype(np.float64), num_groups, seed=0)
    return result.assignments, result.centroids


def _entry_positions(index, centroid, k, ef, stats, id_to_pos):
    """One full search for the group's shared route -> entry positions."""
    centroid_hits = index.search(
        centroid.astype(np.float32, copy=False), k, ef_search=ef, stats=stats
    )
    entries = centroid_hits.ids.tolist()
    if id_to_pos is not None:
        entries = [id_to_pos[item_id] for item_id in entries]
    return entries if entries else [index.entry_point]


def _identity_map(index):
    """External-id -> row-position map, or None when ids are identity."""
    ids = index._ids
    identity_ids = bool(
        ids.shape[0] == 0 or np.array_equal(ids, np.arange(ids.shape[0]))
    )
    return None if identity_ids else {int(e): p for p, e in enumerate(ids)}


def batched_graph_search(
    index,
    queries: np.ndarray,
    k: int,
    ef_search: int | None = None,
    group_size: int = 8,
    stats: SearchStats | None = None,
) -> list[Hits]:
    """Answer a query batch over a :class:`~repro.index.graph_base.GraphIndex`
    with shared traversal.

    Parameters
    ----------
    group_size:
        Target queries per shared route; the batch is k-means-clustered
        into ``ceil(b / group_size)`` groups, and each group runs as one
        shared-frontier kernel call.

    Returns one :class:`Hits` per query, in batch order.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
    b = queries.shape[0]
    if b == 0:
        return []
    stats = stats if stats is not None else SearchStats()
    ef = max(k, ef_search if ef_search is not None else index.ef_search)
    assignments, centroids = _group_queries(queries, group_size)
    id_to_pos = _identity_map(index)

    out: list[Hits] = [Hits.EMPTY] * b
    index_ids = index._ids
    for group in range(centroids.shape[0]):
        members = np.flatnonzero(assignments == group)
        if members.size == 0:
            continue
        entries = _entry_positions(index, centroids[group], k, ef, stats, id_to_pos)
        group_pairs = batched_beam_search(
            queries[members],
            index._vectors,
            index.adjacency,
            entries,
            ef,
            index.score,
            stats=stats,
            aux=index._key_aux(),
        )
        for member, pairs in zip(members, group_pairs):
            stats.candidates_examined += len(pairs)
            out[member] = Hits.from_pairs(pairs[:k], index_ids)
    return out
