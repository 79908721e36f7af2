"""Shared traversal machinery for graph-based indexes (§2.2, graph-based).

Every graph index — KNNG, NSW, HNSW, NSG, Vamana/DiskANN, FANNG — pairs
an adjacency structure with the same *best-first (beam) search*: keep a
frontier of the closest unexpanded nodes and a result set of the ``ef``
closest seen, expand the closest frontier node, stop when the frontier
can no longer improve the results.  They differ in how edges are chosen,
and that too is written once here: :func:`robust_prune` is the occlusion
rule, :func:`select_edges` applies it to a construction beam and
:func:`link` adds one edge, re-selecting on overflow.

The ``allowed`` mask implements bitmask block-first scan on graphs
(§2.3): blocked nodes are traversed *through* (else the induced subgraph
may disconnect, as [3, 43, 87] observe) but never enter the result set.
Visit-first scan, which biases expansion itself, lives in
:mod:`repro.hybrid.visitfirst` on top of the same adjacency.

Two implementations of the traversal live here:

* :func:`beam_search` — the vectorized kernel: a numpy bool bitmap for
  the visited set, one slice gathering all unvisited neighbors of an
  expansion, one batched ``score.distances`` call per expansion, and a
  vectorized beam-threshold prefilter so the result heap only ever sees
  candidates that can actually enter it.  Accepts a
  :class:`~repro.index._kernels.CSRAdjacency` (the fast path — flat
  int64 ``indices``/``indptr`` arrays, no per-node object dereference),
  a ``list[np.ndarray]``, or a callable.
* :func:`beam_search_reference` — the original scalar implementation
  (Python ``set`` visited-set, per-neighbor heapq churn), kept verbatim
  for differential testing: both functions return identical (distance,
  position) pairs and charge identical ``SearchStats`` counts on any
  input (see ``tests/test_kernels.py``).
"""

from __future__ import annotations

import heapq

import numpy as np

from ..core.types import SearchStats
from ..scores import Score
from ._kernels import CSRAdjacency

#: Adjacency representation shared by all graph indexes: one int64 array
#: of neighbor positions per node position.  Graph indexes lazily pack
#: this into a :class:`CSRAdjacency` for searching.
Adjacency = list[np.ndarray]


def beam_search(
    query: np.ndarray,
    vectors: np.ndarray,
    adjacency,  # CSRAdjacency, Adjacency, or callable position -> neighbors
    entry_points: np.ndarray | list[int],
    ef: int,
    score: Score,
    stats: SearchStats | None = None,
    allowed: np.ndarray | None = None,
    ids: np.ndarray | None = None,
) -> list[tuple[float, int]]:
    """Best-first search; returns up to ``ef`` (distance, position) pairs.

    Vectorized kernel: behaviorally identical to
    :func:`beam_search_reference` (same results, same stats counts) but
    with a bitmap visited-set, batched neighbor filtering/scoring, and a
    beam-threshold prefilter in place of per-element heap churn.

    Parameters
    ----------
    entry_points:
        Node positions to seed the frontier with.
    ef:
        Result-set width; bigger explores more (recall knob).
    allowed:
        Optional boolean mask over *external ids*; nodes whose id is
        masked out are expanded but excluded from results.
    ids:
        Position -> external id mapping used with ``allowed`` (defaults
        to identity).
    """
    if ef <= 0:
        return []
    n = vectors.shape[0]
    if n == 0:
        return []
    csr = adjacency if isinstance(adjacency, CSRAdjacency) else None
    if csr is not None:
        indptr, flat_indices = csr.indptr, csr.indices
        neighbors_of = None
    else:
        neighbors_of = adjacency if callable(adjacency) else adjacency.__getitem__
    entry = np.asarray(
        list(dict.fromkeys(int(e) for e in entry_points)), dtype=np.int64
    )
    if entry.size == 0:
        return []
    dists = score.distances(query, vectors[entry])
    if stats is not None:
        stats.distance_computations += entry.size
    ids_arr = None if ids is None else np.asarray(ids)

    visited = np.zeros(n, dtype=bool)
    visited[entry] = True
    heappush, heappop = heapq.heappush, heapq.heappop
    heappushpop = heapq.heappushpop

    # Frontier: min-heap by distance.  Results: max-heap of size ef.
    frontier: list[tuple[float, int]] = []
    results: list[tuple[float, int]] = []
    entry_ok = None
    if allowed is not None:
        entry_ok = allowed[entry] if ids_arr is None else allowed[ids_arr[entry]]
    for i in range(entry.size):
        d, e = float(dists[i]), int(entry[i])
        heappush(frontier, (d, e))
        if entry_ok is None or entry_ok[i]:
            heappush(results, (-d, e))
    while len(results) > ef:
        heappop(results)

    inf = float("inf")
    while frontier:
        d_cand, cand = heappop(frontier)
        worst = -results[0][0] if len(results) >= ef else inf
        if d_cand > worst:
            break
        if stats is not None:
            stats.nodes_visited += 1
        if csr is not None:
            neighbors = flat_indices[indptr[cand] : indptr[cand + 1]]
        else:
            neighbors = np.asarray(neighbors_of(cand), dtype=np.int64)
        if neighbors.size == 0:
            continue
        # One gather filters every already-visited neighbor at once.
        fresh = neighbors[~visited[neighbors]]
        if fresh.size == 0:
            continue
        visited[fresh] = True
        nd = score.distances(query, vectors[fresh])
        if stats is not None:
            stats.distance_computations += fresh.size
        worst = -results[0][0] if len(results) >= ef else inf
        if len(results) >= ef:
            # Once full, ``worst`` only shrinks: anything at/over the
            # current beam threshold can never be admitted, so drop it
            # before touching the heaps.
            keep = nd < worst
            fresh, nd = fresh[keep], nd[keep]
            if fresh.size == 0:
                continue
        ok = None
        if allowed is not None:
            ok = allowed[fresh] if ids_arr is None else allowed[ids_arr[fresh]]
        # Bulk-convert once: numpy scalar extraction inside the loop
        # costs ~100ns per element, tolist() is a single C pass.
        nd = nd.tolist()
        fresh = fresh.tolist()
        for i in range(len(fresh)):
            dist, node = nd[i], fresh[i]
            if dist < worst or len(results) < ef:
                heappush(frontier, (dist, node))
                if ok is None or ok[i]:
                    if len(results) >= ef:
                        heappushpop(results, (-dist, node))
                        worst = -results[0][0]
                    else:
                        heappush(results, (-dist, node))
                        if len(results) >= ef:
                            worst = -results[0][0]

    out = [(-d, n_) for d, n_ in results]
    out.sort()
    return out


#: Frontier nodes expanded per round by :func:`batched_beam_search`.
#: Wider rounds amortize the per-round numpy fixed costs over more
#: gathered neighbors; narrower rounds track the beam bound more
#: tightly.  8 is a good trade for degree ~16-100 graphs.
BATCH_POP_WIDTH = 8


def batched_beam_search(
    queries: np.ndarray,
    vectors: np.ndarray,
    adjacency,  # CSRAdjacency, Adjacency, or callable position -> neighbors
    entry_points: np.ndarray | list[int],
    ef: int,
    score: Score,
    stats: SearchStats | None = None,
    allowed: np.ndarray | None = None,
    ids: np.ndarray | None = None,
    width: int = BATCH_POP_WIDTH,
) -> list[list[tuple[float, int]]]:
    """Merged-frontier best-first search for a group of similar queries.

    The group shares **one** frontier: a node's priority is its distance
    to the *nearest* group member, and each round pops up to ``width``
    nodes, gathers all their unvisited neighbors with one concatenated
    CSR slice, and scores the merged candidate set against every query
    in one fused ``score.distances_batch`` pass.  Each query keeps its
    own top-``ef`` result pool — updated per round with one vectorized
    ``argpartition`` over (pool | candidates) — and the traversal stops
    when the frontier's best node cannot improve *any* member's pool
    (the solo beam bound, taken over the group).

    Because scoring is fused, every member sees every expanded node, so
    the per-query visited bitmaps provably stay equal and collapse into
    a single shared bitmap: each node is gathered and scored **once per
    group** instead of once per member, which is where the batch win
    comes from.

    Semantics versus per-member :func:`beam_search`: the group bound is
    the *maximum* of the members' solo beam bounds, so the merged
    traversal expands a superset of what the tightest member would and
    each member's pool is filled from a candidate stream at least as
    rich as its solo stream.  Results are not bitwise-identical to solo
    search (tie-breaking at the pool boundary and exploration order
    differ) but are deterministic for fixed inputs, and recall is
    empirically at or above the per-member reference on clustered
    batches (see ``tests/test_multivector_batched.py``).

    ``SearchStats`` accounting reflects the shared work honestly:
    ``nodes_visited`` counts *group* expansions (each node once per
    group, not once per member) and ``distance_computations`` counts the
    fused pass cost (``g`` distances per scored candidate).

    Returns one pair list per query, sorted by (distance, position).
    """
    queries = np.atleast_2d(np.asarray(queries))
    g = queries.shape[0]
    if g == 0:
        return []
    n = vectors.shape[0]
    empty: list[list[tuple[float, int]]] = [[] for _ in range(g)]
    if ef <= 0 or n == 0:
        return empty
    csr = adjacency if isinstance(adjacency, CSRAdjacency) else None
    if csr is not None:
        indptr, flat_indices = csr.indptr, csr.indices
        neighbors_of = None
    else:
        neighbors_of = adjacency if callable(adjacency) else adjacency.__getitem__
    entry = np.asarray(
        list(dict.fromkeys(int(e) for e in entry_points)), dtype=np.int64
    )
    if entry.size == 0:
        return empty
    ids_arr = None if ids is None else np.asarray(ids)
    heappush, heappop = heapq.heappush, heapq.heappop
    inf = float("inf")

    visited = np.zeros(n, dtype=bool)
    visited[entry] = True

    # Per-query top-ef pools as (g, ef) arrays; +inf marks empty slots.
    pool_d = np.full((g, ef), inf, dtype=np.float64)
    pool_i = np.full((g, ef), -1, dtype=np.int64)

    def admit(cand_nodes: np.ndarray, cand_d: np.ndarray) -> None:
        """Merge a scored candidate block into every pool at once."""
        nonlocal pool_d, pool_i, group_bound
        if allowed is not None:
            ok = (
                allowed[cand_nodes]
                if ids_arr is None
                else allowed[ids_arr[cand_nodes]]
            )
            if not ok.all():
                cand_d = np.where(ok[None, :], cand_d, inf)
        cat_d = np.concatenate([pool_d, cand_d], axis=1)
        cat_i = np.concatenate(
            [pool_i, np.broadcast_to(cand_nodes, cand_d.shape)], axis=1
        )
        part = np.argpartition(cat_d, ef - 1, axis=1)[:, :ef]
        pool_d = np.take_along_axis(cat_d, part, axis=1)
        pool_i = np.take_along_axis(cat_i, part, axis=1)
        # A frontier node can improve *some* member iff it beats that
        # member's worst pooled distance; the group bound is the loosest.
        group_bound = float(pool_d.max(axis=1).max())

    group_bound = inf
    entry_d = score.distances_batch(queries, vectors[entry]).astype(
        np.float64, copy=False
    )
    if stats is not None:
        stats.distance_computations += g * entry.size
    admit(entry, entry_d)

    frontier: list[tuple[float, int]] = []
    for prio, node in zip(entry_d.min(axis=0).tolist(), entry.tolist()):
        heappush(frontier, (prio, node))

    while frontier:
        batch: list[int] = []
        while frontier and len(batch) < width:
            d_cand, cand = heappop(frontier)
            if d_cand > group_bound:
                # Min-heap: every remaining node is at least this far
                # from every member, so nothing left can be admitted.
                frontier.clear()
                break
            batch.append(cand)
        if not batch:
            break
        if stats is not None:
            stats.nodes_visited += len(batch)
        if csr is not None:
            parts = [flat_indices[indptr[v] : indptr[v + 1]] for v in batch]
        else:
            parts = [np.asarray(neighbors_of(v), dtype=np.int64) for v in batch]
        nbrs = np.concatenate(parts) if len(parts) > 1 else parts[0]
        if nbrs.size == 0:
            continue
        fresh = nbrs[~visited[nbrs]]
        if fresh.size == 0:
            continue
        # unique() both removes intra-round duplicates and fixes the
        # scoring order (sorted by position) for determinism.
        fresh = np.unique(fresh)
        visited[fresh] = True
        nd = score.distances_batch(queries, vectors[fresh]).astype(
            np.float64, copy=False
        )
        if stats is not None:
            stats.distance_computations += g * fresh.size
        prio = nd.min(axis=0)
        push = prio <= group_bound
        for p, node in zip(prio[push].tolist(), fresh[push].tolist()):
            heappush(frontier, (p, node))
        admit(fresh, nd)

    out: list[list[tuple[float, int]]] = []
    for i in range(g):
        row_d, row_i = pool_d[i], pool_i[i]
        real = np.isfinite(row_d)
        order = np.lexsort((row_i[real], row_d[real]))
        out.append(
            list(zip(row_d[real][order].tolist(), row_i[real][order].tolist()))
        )
    return out


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
    testing oracle for :func:`beam_search`.  Do not optimize this."""
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


def greedy_walk(
    query: np.ndarray,
    vectors: np.ndarray,
    adjacency,  # Adjacency, or a callable position -> neighbor array
    start: int,
    score: Score,
    stats: SearchStats | None = None,
) -> tuple[int, float, list[int]]:
    """Pure greedy descent (beam width 1); returns (node, distance, path).

    Used by MSN construction (search trials) and as the upper-layer
    routing step of HNSW.
    """
    neighbors_of = adjacency if callable(adjacency) else adjacency.__getitem__
    current = int(start)
    current_dist = float(score.distances(query, vectors[current : current + 1])[0])
    if stats is not None:
        stats.distance_computations += 1
    path = [current]
    improved = True
    while improved:
        improved = False
        neighbors = neighbors_of(current)
        if len(neighbors) == 0:
            break
        nd = score.distances(query, vectors[neighbors])
        if stats is not None:
            stats.distance_computations += len(neighbors)
            stats.nodes_visited += 1
        best = int(nd.argmin())
        if float(nd[best]) < current_dist:
            current = int(neighbors[best])
            current_dist = float(nd[best])
            path.append(current)
            improved = True
    return current, current_dist, path


def medoid(vectors: np.ndarray) -> int:
    """Position of the vector closest to the dataset mean (cheap medoid)."""
    center = vectors.mean(axis=0)
    diff = vectors - center
    return int(np.einsum("ij,ij->i", diff, diff).argmin())


def robust_prune(
    candidate_positions: np.ndarray,
    candidate_distances: np.ndarray,
    vectors: np.ndarray,
    max_degree: int,
    score: Score,
    alpha: float = 1.0,
) -> np.ndarray:
    """Vamana's RobustPrune / the MRNG-style occlusion rule — the one
    edge-selection rule of the family.

    Scan candidates by ascending distance; keep one if no already-kept
    neighbor "occludes" it, i.e. ``alpha * d(kept, cand) < d(query_node,
    cand)``.  ``alpha > 1`` keeps longer-range edges (DiskANN's knob);
    ``alpha == 1`` is the classic monotonic (RNG) rule used by NSG and
    FANNG, and is HNSW's heuristic neighbor selection (Algorithm 4).
    """
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


def select_edges(
    node: int,
    pairs: list[tuple[float, int]],
    adjacency,  # Adjacency or a layer table: anything with adjacency[node]
    vectors: np.ndarray,
    max_degree: int,
    score: Score,
    alpha: float = 1.0,
) -> np.ndarray:
    """Out-edges for ``node``: :func:`robust_prune` over its construction
    beam ``pairs`` unioned with its current neighbors (as the NSG and
    Vamana papers do; a node being inserted, as in HNSW, has none yet)."""
    pool = {p: d for d, p in pairs if p != node}
    for nb in adjacency[node]:
        nb = int(nb)
        if nb != node and nb not in pool:
            pool[nb] = float(score.distances(vectors[node], vectors[nb : nb + 1])[0])
    positions = np.fromiter(pool.keys(), dtype=np.int64, count=len(pool))
    dists = np.fromiter(pool.values(), dtype=np.float64, count=len(pool))
    return robust_prune(positions, dists, vectors, max_degree, score, alpha)


def link(
    adjacency,  # Adjacency or a layer table: anything with adjacency[node]
    source: int,
    target: int,
    vectors: np.ndarray,
    max_degree: int,
    score: Score,
    alpha: float = 1.0,
) -> None:
    """Add the edge ``source -> target``; when that overflows
    ``max_degree``, re-select all of ``source``'s edges with
    :func:`robust_prune` at the calling pass's ``alpha``."""
    merged = np.append(adjacency[source], target)
    if merged.shape[0] > max_degree:
        d = score.distances(vectors[source], vectors[merged])
        merged = robust_prune(merged, d, vectors, max_degree, score, alpha)
    adjacency[source] = merged


def ensure_connected(
    adjacency: Adjacency,
    vectors: np.ndarray,
    root: int,
    score: Score,
    max_degree: int,
) -> int:
    """Attach unreachable components to their nearest reachable node.

    NSG runs exactly this spanning step after pruning.  Returns the
    number of edges added.
    """
    n = len(adjacency)
    seen = np.zeros(n, dtype=bool)
    stack = [root]
    seen[root] = True
    while stack:
        node = stack.pop()
        for nb in adjacency[node]:
            nb = int(nb)
            if not seen[nb]:
                seen[nb] = True
                stack.append(nb)
    added = 0
    while not seen.all():
        orphan = int(np.flatnonzero(~seen)[0])
        reachable = np.flatnonzero(seen)
        d = score.distances(vectors[orphan], vectors[reachable])
        anchor = int(reachable[d.argmin()])
        adjacency[anchor] = np.append(adjacency[anchor], orphan)[-max(max_degree, len(adjacency[anchor]) + 1):]
        added += 1
        # Flood from the orphan (its whole component becomes reachable).
        stack = [orphan]
        seen[orphan] = True
        while stack:
            node = stack.pop()
            for nb in adjacency[node]:
                nb = int(nb)
                if not seen[nb]:
                    seen[nb] = True
                    stack.append(nb)
    return added


def graph_degree_stats(adjacency: Adjacency) -> dict[str, float]:
    degrees = np.array([len(a) for a in adjacency], dtype=np.float64)
    return {
        "mean_degree": float(degrees.mean()) if degrees.size else 0.0,
        "max_degree": float(degrees.max()) if degrees.size else 0.0,
        "min_degree": float(degrees.min()) if degrees.size else 0.0,
        "num_edges": float(degrees.sum()),
    }
