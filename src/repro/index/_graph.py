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

The traversal is written once, as rounds (see ``docs/performance.md``,
"Graph kernels"): :func:`_round` pops up to ``width`` frontier nodes
that still beat the beam bound, gathers their neighbor lists in one
concatenation, drops what was seen and de-duplicates; the whole round is
then ranked by **one** ``Score.keys`` call — the GEMV form of
:mod:`repro.index._scan`, over a position gather — and exact
``score.distances`` run only on the final pool, under the same key /
re-score / certificate contract as ``scan_topk``.  :func:`beam_search`
(one query, heap pools) and :func:`batched_beam_search` (a query group
sharing one frontier, array pools, one GEMM per round) are that step
with two pool representations; :func:`greedy_walk` ranks by the same
keys.  ``width=1`` under a score whose keys are its distances is strict
best-first order, which is what the scalar oracle in ``tests/oracles.py``
is held against (``tests/test_kernels.py``).  Any adjacency works — a
``list[np.ndarray]``, a layer table, a
:class:`~repro.index._kernels.CSRAdjacency` or a callable.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

from ..core.types import SearchStats
from ..scores import Score

#: Adjacency representation shared by all graph indexes: one int64 array
#: of neighbor positions per node position.
Adjacency = list[np.ndarray]

#: Frontier nodes expanded per round by both beam kernels once their
#: pools are full (:func:`_round`).  Wider rounds amortize the per-round
#: numpy fixed costs over more gathered neighbors; narrower rounds track
#: the beam bound more tightly.  8 is a good trade for degree ~16-100
#: graphs; 1 is strict best-first order.
BATCH_POP_WIDTH = 8
#: A traversal ranked by ``Score.keys`` stands when the score's
#: ``key_margin`` (the rounding of the GEMV form) is under 1/KEY_TRUST
#: of the key spread of the pool it filled; otherwise the keys cannot
#: order that pool and the traversal is redone by ``distances``.
KEY_TRUST = 16

_INF = float("inf")


def _entries(entry_points) -> np.ndarray:
    """Seed positions, de-duplicated in first-seen order."""
    unique = dict.fromkeys(int(e) for e in entry_points)
    return np.fromiter(unique, dtype=np.int64, count=len(unique))


def _admissible(positions, allowed, ids) -> np.ndarray | None:
    """``allowed`` (a mask over external ids) at the rows ``positions``;
    None when nothing is masked."""
    if allowed is None:
        return None
    return allowed[positions if ids is None else ids[positions]]


def _keys(score, query, vectors, aux, positions, stats) -> np.ndarray:
    """Ranking keys of the rows at ``positions`` for one query -> (m,)
    or a query block -> (g, m): one ``Score.keys`` GEMV / GEMM when
    ``aux`` carries the score's auxiliary, its ``distances`` otherwise.
    Charges one distance computation per key."""
    # take() gathers rows at about half the cost of fancy indexing.
    rows = vectors.take(positions, axis=0)
    if aux is None:  # rank by distances: what the base ``Score.keys`` does
        keys = Score.keys(score, query, rows, None)
    else:
        keys = score.keys(query, rows, aux[0].take(positions))
    if stats is not None:
        stats.distance_computations += keys.size
    return keys


def _trusted(score, query, aux, spread: float) -> bool:
    """The key certificate (see :data:`KEY_TRUST`) for one filled pool."""
    return score.key_margin(query, aux[1]) * KEY_TRUST <= spread


def _round(frontier, bound, width, adjacency, stamp, stats) -> np.ndarray | None:
    """The round step both beam kernels share: pop up to ``width``
    frontier nodes that still beat ``bound`` (one while there is no
    bound), gather their neighbor lists in one concatenation, and return
    the neighbors never seen before — each once, in gather order,
    stamped as seen.  None once no frontier node beats the bound (the
    traversal is over)."""
    if bound == _INF:
        # Nothing can be cut until the pool is full, so a wide round
        # buys no pruning — only candidates that tighten the bound
        # before the walk has reached the query's neighborhood (on a
        # sparse graph that closes the one bridge a strict walk would
        # have crossed: NSG's E6 recall at ef 96 fell 0.97 -> 0.83).
        # Depth first; breadth once there is a bound.
        width = 1
    batch: list[int] = []
    for _ in range(min(width, len(frontier))):
        key, node = heapq.heappop(frontier)
        if key > bound:
            # Min-heap and a bound that only shrinks: nothing left in
            # the frontier can ever be admitted.
            frontier.clear()
            break
        batch.append(node)
    if not batch:
        return None
    if stats is not None:
        stats.nodes_visited += len(batch)
    neighbors_of = adjacency if callable(adjacency) else adjacency.__getitem__
    parts = [neighbors_of(v) for v in batch]
    nbrs = np.asarray(
        parts[0] if len(parts) == 1 else np.concatenate(parts), dtype=np.int64
    )
    fresh = nbrs[stamp[nbrs] == 0]
    # De-duplicate without reordering: every occurrence writes its own
    # ticket and reads the cell back; of a repeated node only the last
    # write survives (numpy's documented rule for repeated indices).
    tickets = np.arange(1, fresh.size + 1)
    stamp[fresh] = tickets
    return fresh[stamp[fresh] == tickets]


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
    aux: tuple[np.ndarray, np.ndarray] | None = None,
    width: int = BATCH_POP_WIDTH,
) -> list[tuple[float, int]]:
    """Best-first search; returns up to ``ef`` (distance, position) pairs.

    Round-based: each round expands up to ``width`` frontier nodes
    (:func:`_round`; one until the pool is full) and ranks everything
    they reach with **one** ``Score.keys`` call; exact
    ``score.distances`` run once, on the final pool, so the distances
    returned are the ones a plain scan returns and the pool is ordered
    by them (ties by position).  ``width=1`` without ``aux`` is strict
    best-first order.

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
    aux:
        ``(score.row_aux(vectors), its one-element maximum)`` — the
        GEMV key form, with the entry ``key_margin`` reads found once
        per index state.  Without it the keys are the distances.  A
        filled pool that fails the certificate (:data:`KEY_TRUST`: rows
        far from the origin) is searched again by ``distances``.
    """
    entry = _entries(entry_points)
    if ef <= 0 or vectors.shape[0] == 0 or entry.size == 0:
        return []
    heappush, heappushpop = heapq.heappush, heapq.heappushpop
    ids = None if ids is None else np.asarray(ids)
    stamp = np.zeros(vectors.shape[0], dtype=np.int32)
    stamp[entry] = 1

    # Every seed enters the frontier (a min-heap by key); the ef best
    # allowed ones are the first results (a max-heap of the ef best
    # allowed nodes seen, whose worst key is ``bound`` once it is full).
    keys = _keys(score, query, vectors, aux, entry, stats)
    frontier = list(zip(keys.tolist(), entry.tolist()))
    ok = _admissible(entry, allowed, ids)
    results = [
        (-key, node)
        for i, (key, node) in enumerate(frontier)
        if ok is None or ok[i]
    ]
    heapq.heapify(frontier)
    heapq.heapify(results)
    while len(results) > ef:
        heapq.heappop(results)
    bound = -results[0][0] if len(results) >= ef else _INF

    unmasked = itertools.repeat(True)
    while (
        fresh := _round(frontier, bound, width, adjacency, stamp, stats)
    ) is not None:
        if fresh.size == 0:
            continue
        keys = _keys(score, query, vectors, aux, fresh, stats)
        if bound < _INF:
            # The bound only shrinks: a key at or over it can never be
            # admitted, so drop it before touching the heaps.
            keep = keys < bound
            fresh, keys = fresh[keep], keys[keep]
        ok = _admissible(fresh, allowed, ids)
        # tolist() once: numpy scalar extraction inside the loop costs
        # ~100ns per element.
        for key, node, good in zip(
            keys.tolist(), fresh.tolist(), unmasked if ok is None else ok.tolist()
        ):
            if key < bound or len(results) < ef:
                heappush(frontier, (key, node))
                if good:
                    if len(results) < ef:
                        heappush(results, (-key, node))
                    else:
                        heappushpop(results, (-key, node))
                    if len(results) >= ef:
                        bound = -results[0][0]

    if aux is None:  # the keys are the distances
        return sorted((-key, node) for key, node in results)
    if len(results) >= ef and not _trusted(
        score, query, aux, max(results)[0] - results[0][0]
    ):
        return beam_search(
            query, vectors, adjacency, entry, ef, score, stats, allowed, ids,
            width=width,
        )
    nodes = [node for _, node in results]
    exact = score.distances(query, vectors.take(nodes, axis=0))
    return sorted(zip(exact.tolist(), nodes))


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
    aux: tuple[np.ndarray, np.ndarray] | None = None,
    width: int = BATCH_POP_WIDTH,
) -> list[list[tuple[float, int]]]:
    """Merged-frontier best-first search for a group of similar queries.

    The group shares **one** frontier: a node's priority is its key to
    the *nearest* group member, and each round (:func:`_round`, the
    step :func:`beam_search` runs) ranks the merged candidate set
    against every member with one ``Score.keys`` call over the query
    block — one GEMM.  Each query keeps its own top-``ef`` pool —
    updated per round with one vectorized ``argpartition`` over (pool |
    candidates) — and the traversal stops when the frontier's best node
    cannot improve *any* member's pool (the solo beam bound, taken over
    the group).  Pools are re-scored exactly and certified per member
    as in :func:`beam_search`; one failed certificate redoes the group
    by ``distances``.

    Because scoring is fused, every member sees every expanded node, so
    the per-query visited sets provably stay equal and collapse into a
    single shared one: each node is gathered and scored **once per
    group** instead of once per member, which is where the batch win
    comes from.

    Semantics versus per-member :func:`beam_search`: the group bound is
    the *maximum* of the members' solo beam bounds, so the merged
    traversal expands a superset of what the tightest member would and
    each member's pool is filled from a candidate stream at least as
    rich as its solo stream.  Results are not bitwise-identical to solo
    search (tie-breaking at the pool boundary and exploration order
    differ) but are deterministic for fixed inputs, and recall is
    empirically at or above the per-member loop on clustered batches
    (see ``tests/test_multivector_batched.py``).

    ``SearchStats`` accounting reflects the shared work honestly:
    ``nodes_visited`` counts *group* expansions (each node once per
    group, not once per member) and ``distance_computations`` counts the
    fused pass cost (``g`` keys per scored candidate).

    Returns one pair list per query, sorted by (distance, position).
    """
    queries = np.atleast_2d(np.asarray(queries))
    g = queries.shape[0]
    entry = _entries(entry_points)
    if g == 0 or ef <= 0 or vectors.shape[0] == 0 or entry.size == 0:
        return [[] for _ in range(g)]
    ids = None if ids is None else np.asarray(ids)
    stamp = np.zeros(vectors.shape[0], dtype=np.int32)
    stamp[entry] = 1

    # Per-query top-ef pools as (g, ef) arrays; +inf marks empty slots.
    pool_k = np.full((g, ef), _INF, dtype=np.float64)
    pool_i = np.full((g, ef), -1, dtype=np.int64)
    frontier: list[tuple[float, int]] = []
    # A frontier node can improve *some* member iff it beats that
    # member's worst pooled key; the group bound is the loosest.
    bound = _INF
    if aux is not None:
        # A key orders one query's rows; between members keys differ by
        # a constant each.  Level them at the key a member's own vector
        # would get as a row (distance zero) — under l2 that leaves the
        # squared distance — so "nearest member" and the group bound
        # mean what they do for distances.
        level = np.diagonal(
            score.keys(queries, queries, score.row_aux(queries))
        )[:, None]
    fresh = entry
    while fresh is not None:
        if fresh.size:
            keys = _keys(score, queries, vectors, aux, fresh, stats)
            if aux is not None:
                keys -= level
            prio = keys.min(axis=0)
            push = prio <= bound
            for p, node in zip(prio[push].tolist(), fresh[push].tolist()):
                heapq.heappush(frontier, (p, node))
            ok = _admissible(fresh, allowed, ids)
            if ok is not None and not ok.all():
                keys = np.where(ok, keys, _INF)
            # Merge the scored block into every pool at once.
            cat_k = np.concatenate([pool_k, keys], axis=1)
            cat_i = np.concatenate(
                [pool_i, np.broadcast_to(fresh, keys.shape)], axis=1
            )
            part = np.argpartition(cat_k, ef - 1, axis=1)[:, :ef]
            pool_k = np.take_along_axis(cat_k, part, axis=1)
            pool_i = np.take_along_axis(cat_i, part, axis=1)
            bound = float(pool_k.max())
        fresh = _round(frontier, bound, width, adjacency, stamp, stats)

    out: list[list[tuple[float, int]]] = []
    for query, row_k, row_i in zip(queries, pool_k, pool_i):
        real = np.isfinite(row_k)
        ranked, positions = row_k[real], row_i[real]
        if aux is not None:
            if real.all() and not _trusted(
                score, query, aux, float(ranked.max() - ranked.min())
            ):
                return batched_beam_search(
                    queries, vectors, adjacency, entry, ef, score, stats,
                    allowed, ids, width=width,
                )
            ranked = score.distances(query, vectors.take(positions, axis=0))
        order = np.lexsort((positions, ranked))
        out.append(list(zip(ranked[order].tolist(), positions[order].tolist())))
    return out


def greedy_walk(
    query: np.ndarray,
    vectors: np.ndarray,
    adjacency,  # Adjacency, or a callable position -> neighbor array
    start: int,
    score: Score,
    stats: SearchStats | None = None,
    aux: tuple[np.ndarray, np.ndarray] | None = None,
    start_key: float | None = None,
) -> tuple[int, float, list[int]]:
    """Pure greedy descent (beam width 1); returns (node, key, path).

    Used by MSN construction (search trials) and as the upper-layer
    routing step of HNSW.  Ranks by the keys the beam kernels rank by
    (``aux`` as in :func:`beam_search`; without it the returned key is
    the end node's exact distance).  ``start_key`` is the running key
    of ``start`` when the caller already holds it — the previous
    layer's walk ended there — so no node is scored twice.
    """
    neighbors_of = adjacency if callable(adjacency) else adjacency.__getitem__
    current, current_key = int(start), start_key
    if current_key is None:
        current_key = float(_keys(score, query, vectors, aux, [current], stats)[0])
    path = [current]
    while True:
        neighbors = neighbors_of(current)
        if len(neighbors) == 0:
            break
        keys = _keys(score, query, vectors, aux, neighbors, stats)
        if stats is not None:
            stats.nodes_visited += 1
        best = int(keys.argmin())
        if not keys[best] < current_key:
            break
        current, current_key = int(neighbors[best]), float(keys[best])
        path.append(current)
    return current, current_key, path


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
    positions, dists = candidate_positions[order], candidate_distances[order]
    rows = vectors[positions]
    # Block-wise: each *kept* node is scored once against every later
    # candidate and ORs in what it occludes — at most max_degree calls
    # over the block instead of one call per candidate over the kept.
    count = positions.shape[0]
    occluded = np.zeros(count, dtype=bool)
    kept: list[int] = []
    i = 0
    while i < count:
        kept.append(i)
        if len(kept) >= max_degree or i + 1 == count:
            break
        later = occluded[i + 1 :]
        later |= alpha * score.distances(rows[i], rows[i + 1 :]) < dists[i + 1 :]
        step = int(later.argmin())  # the first later candidate still standing
        if later[step]:
            break
        i += 1 + step
    return positions[kept]


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
    missing = [
        nb for nb in adjacency[node].tolist() if nb != node and nb not in pool
    ]
    if missing:  # one call for all of them, in neighbor order
        distances = score.distances(vectors[node], vectors[missing])
        pool.update(zip(missing, distances.tolist()))
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
