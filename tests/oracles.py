"""Test-side oracles for the graph and k-means kernels (differential testing).

These are the implementations the kernels in ``repro.index._graph``
and ``repro.quantization.kmeans`` replaced, kept
**verbatim** as the reference the kernels are held against — they are
the oracle, not a perf baseline:

* :func:`beam_search_reference` — the scalar best-first search (Python
  ``set`` visited-set, per-neighbor heapq churn).  ``beam_search(...,
  width=1)`` under a score whose keys are its distances returns the same
  pairs and charges the same counters.
* :func:`robust_prune_reference` — the scalar occlusion loop (one
  ``distances`` call per candidate against the kept rows) the block-wise
  ``robust_prune`` must select the same edges as.
* :class:`HnswReference` — HNSW built the way the fixed-degree layer-0
  matrix replaced: list adjacency, :func:`lockstep_beam_search_reference`
  (the lockstep kernel with one list lookup per expanded node and one
  ``_final_pool`` re-score per member), the wave-mate union as a sorted
  pair list, and one ``select_edges`` + ``link`` sequence per member.
  ``HnswIndex`` must build the same layers, levels and entry point.
* :func:`label_search_reference` — ``FilteredHnswIndex``'s label search
  as it was before its label slot matrix: the stitched edges kept per
  node, and one closure per query that unions a node's bottom-layer row
  with them and filters the union by the query's label.
  ``search(..., label=v)`` must return the same hits and counters.
* :func:`kmeans_reference` / :func:`kmeans_pp_init_reference` — Lloyd's
  loop and k-means++ over :func:`squared_distances_reference` (norms
  recomputed per call, ``2.0 * cross`` after the GEMM) with an
  ``np.add.at`` centroid update; with :func:`assign_reference` and
  :func:`assign_topn_reference`, what ``kmeans``, ``kmeans_pp_init``,
  ``assign`` and ``assign_topn`` must equal bit for bit.
* :func:`ivfadc_search_reference` — the per-cell float-table ADC scan
  (one table build and one lookup per probed cell) that
  ``IvfAdc.search`` on the flat layout must equal, and that the blocked
  layout is measured against.
* :class:`TreeNode` / :func:`build_tree_reference` /
  :func:`build_pca_tree_reference` / :func:`best_first_search_reference`
  — the pointer trees the array forests of ``repro.index._tree``
  replaced, with the exact-mode bound that re-scores every candidate
  after each leaf.  ``build_forest`` + ``best_first_search`` must visit
  the same leaves and return the same candidates.
* :func:`merged_scan_reference` — ``QueryExecutor._scan`` before
  candidate indexes: the index searched for ``k`` + the rewritten rows,
  those dropped from its answer, the tail scanned on its own and the two
  answers merged.  ``db.search`` / ``db.range_search`` must answer as it
  does, the rewritten rows a candidate index holds now scored once.

Do not optimize anything here.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from repro.core.errors import IndexNotBuiltError
from repro.core.types import Hits, SearchStats
from repro.index import HnswIndex, graph_base
from repro.index._graph import (
    _PAIR_SLOTS,
    BATCH_POP_WIDTH,
    LOCKSTEP_MAX_GROUP,
    _distinct,
    _entries,
    _merge,
    _paired_keys,
    _pop,
    _trusted,
    beam_search,
    ensure_connected,
    link,
    medoid,
    pack_slots,
    select_edges,
)
from repro.index._scan import scan_topk
from repro.index.knng import brute_force_knng
from repro.quantization.ivfadc import IvfAdc, IvfAdcSearchStats
from repro.quantization.kmeans import KMeansResult
from repro.scores import Score


def as_pairs(dists: np.ndarray, positions: np.ndarray, n: int | None = None):
    """A kernel's answer as (distance, position) pairs: a solo pool as one
    list; a ``(g, ef)`` pool padded with position ``n`` as one list a row."""
    if dists.ndim == 2:
        return [as_pairs(d[p < n], p[p < n]) for d, p in zip(dists, positions)]
    return list(zip(dists.tolist(), positions.tolist()))


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


def _final_pool_reference(score, query, vectors, aux, keys, positions):
    """One array pool's answer: its real (finite-key) entries, re-scored
    by ``distances`` when ranked by keys, sorted by (distance,
    position).  None when the pool is full and fails the key
    certificate — the caller searches again by ``distances``."""
    real = np.isfinite(keys)
    ranked, positions = keys[real], positions[real]
    if aux is not None:
        if real.all() and not _trusted(
            score, query, aux, float(ranked.max() - ranked.min())
        ):
            return None
        ranked = score.distances(query, vectors.take(positions, axis=0))
    order = np.lexsort((positions, ranked))
    return list(zip(ranked[order].tolist(), positions[order].tolist()))


def lockstep_beam_search_reference(
    queries: np.ndarray,
    vectors: np.ndarray,
    adjacency,  # Adjacency, or a callable position -> neighbors
    entries_per_member: list,
    ef: int,
    score: Score,
    aux: tuple[np.ndarray, np.ndarray] | None = None,
    width: int = BATCH_POP_WIDTH,
) -> list[list[tuple[float, int]]]:
    """``g`` independent beam searches run in lockstep, one pair list per
    member: neighbor lists gathered one list lookup per expanded node,
    every finished member re-scored on its own."""
    queries = np.atleast_2d(queries)
    g = queries.shape[0]
    if g == 1:
        return [
            as_pairs(*beam_search(
                queries[0], vectors, adjacency, entries_per_member[0], ef,
                score, aux=aux, width=width,
            ))
        ]
    if g > LOCKSTEP_MAX_GROUP:
        return [
            pairs
            for a in range(0, g, LOCKSTEP_MAX_GROUP)
            for pairs in lockstep_beam_search_reference(
                queries[a : a + LOCKSTEP_MAX_GROUP], vectors, adjacency,
                entries_per_member[a : a + LOCKSTEP_MAX_GROUP], ef, score,
                aux, width,
            )
        ]
    out: list[list[tuple[float, int]]] = [[] for _ in range(g)]
    n = vectors.shape[0]
    seeds = [_entries(e) for e in entries_per_member]
    member = np.array([m for m in range(g) if seeds[m].size], dtype=np.int64)
    if ef <= 0 or n == 0 or member.size == 0:
        return out
    neighbors_of = adjacency if callable(adjacency) else adjacency.__getitem__
    live_q = queries[member]
    bit = np.left_shift(np.uint64(1), member.astype(np.uint64))
    pool_k = np.full((member.size, ef), np.inf)
    pool_i = np.full(pool_k.shape, -1, dtype=np.int64)
    bound = np.full(member.size, np.inf)
    seen = np.zeros(n, dtype=np.uint64)
    stamp = np.zeros(_PAIR_SLOTS, dtype=np.int32)
    tags = np.repeat(np.arange(member.size), [seeds[m].size for m in member])
    positions = np.concatenate([seeds[m] for m in member])
    while True:
        if positions.size:
            np.bitwise_or.at(seen, positions, bit[tags])
            keys = _paired_keys(score, live_q, vectors, aux, tags, positions)
            keep = keys < bound[tags]
            if keep.any():
                tags, positions, keys = tags[keep], positions[keep], keys[keep]
                counts = np.bincount(tags, minlength=member.size)
                col = np.arange(tags.size) - (np.cumsum(counts) - counts)[tags]
                block_k = np.full((member.size, int(counts.max())), np.inf)
                block_i = np.full(block_k.shape, -1, dtype=np.int64)
                block_k[tags, col] = keys
                block_i[tags, col] = positions
                pool_k, pool_i = _merge(pool_k, block_k, (pool_i, block_i))
                bound = pool_k.max(axis=1)
        cols, taken = _pop(pool_k, pool_i, bound < np.inf, width)
        done = ~taken.any(axis=1)
        if done.any():
            for slot in np.flatnonzero(done).tolist():
                m = int(member[slot])
                row_i = pool_i[slot]
                pairs = _final_pool_reference(
                    score, queries[m], vectors, aux, pool_k[slot],
                    np.where(row_i < -1, -2 - row_i, row_i),
                )
                out[m] = pairs if pairs is not None else as_pairs(*beam_search(
                    queries[m], vectors, adjacency, seeds[m], ef, score,
                    width=width,
                ))
            live = ~done
            if not live.any():
                return out
            member, live_q, bit, bound = member[live], live_q[live], bit[live], bound[live]
            pool_k, pool_i = pool_k[live], pool_i[live]
            cols, taken = cols[live], taken[live]
        slots, which = np.nonzero(taken)
        picked = cols[slots, which]
        popped = pool_i[slots, picked]
        pool_i[slots, picked] = -2 - popped
        parts = [neighbors_of(v) for v in popped.tolist()]
        tags = np.repeat(slots, [len(p) for p in parts])
        positions = np.asarray(np.concatenate(parts), dtype=np.int64)
        unseen = (seen[positions] & bit[tags]) == 0
        tags, positions = tags[unseen], positions[unseen]
        first = _distinct(tags * n + positions, stamp)
        tags, positions = tags[first], positions[first]


class HnswReference(HnswIndex):
    """HNSW whose layer 0 is built one member at a time over list
    adjacency, in waves of ``graph_base.WAVE_CAP``; the upper layers,
    levels and entry point come from the same ``_insert_entries``."""

    def _build_graph(self):
        vectors, ef, aux = self._vectors, self.ef_construction, self._key_aux()
        n = vectors.shape[0]
        adjacency = [np.empty(0, dtype=np.int64) for _ in range(n)]
        self._upper, self._levels = [], []
        self._rng = np.random.default_rng(self.seed)
        start = 0
        while start < n:
            stop = min(n, start + min(graph_base.WAVE_CAP, max(1, start)))
            entries: dict[int, list[int]] = {}
            for pos in range(start, stop):
                entries[pos] = [
                    seed
                    for e in self._insert_entries(pos)
                    for seed in (entries[e] if e >= start else (e,))
                ]
            pools = lockstep_beam_search_reference(
                vectors[start:stop], vectors, adjacency, list(entries.values()),
                ef, self.score, aux=aux,
            )
            for pos, pairs in zip(range(start, stop), pools):
                if pos > start:
                    mates = self.score.distances(vectors[pos], vectors[start:pos])
                    pairs = sorted(pairs + list(zip(mates.tolist(), range(start, pos))))
                if pairs:
                    dists, positions = (np.array(c) for c in zip(*pairs[:ef]))
                    adjacency[pos] = select_edges(
                        pos, dists, positions, adjacency, vectors, self.m, self.score
                    )
                    for nb in adjacency[pos]:
                        link(adjacency, int(nb), pos, vectors, self.max_degree0, self.score)
            start = stop
        return pack_slots(adjacency)


def _label_edges_reference(index) -> dict[int, np.ndarray]:
    """The stitched same-label edges of ``index``, per node, as
    ``FilteredHnswIndex`` kept them before its label slot matrix."""
    label_edges: dict[int, np.ndarray] = {}
    for value in np.unique(index.labels):
        members = np.flatnonzero(index.labels == value)
        if members.size == 0:
            continue
        sub_vectors = index._vectors[members]
        local_entry = medoid(sub_vectors.astype(np.float64))
        if members.size == 1:
            label_edges.setdefault(int(members[0]), np.empty(0, np.int64))
            continue
        k = min(index.label_k, members.size - 1)
        local = brute_force_knng(sub_vectors, k, index.score)
        for a, neighbors in enumerate(list(local)):
            for b in neighbors:
                b = int(b)
                if a not in local[b]:
                    local[b] = np.append(local[b], a)
        ensure_connected(local, sub_vectors, local_entry, index.score)
        for a, neighbors in enumerate(local):
            node = int(members[a])
            stitched = members[np.asarray(neighbors, dtype=np.int64)]
            existing = label_edges.get(node)
            label_edges[node] = (
                np.unique(stitched) if existing is None
                else np.unique(np.concatenate([existing, stitched]))
            )
    return label_edges


class _Rows:
    """A per-query neighbor closure behind ``rows[v]``, the way the
    kernels read build-time rows (one lookup a popped node)."""

    def __init__(self, neighbors):
        self.neighbors = neighbors

    def __getitem__(self, node):
        return self.neighbors(node)


def label_search_reference(
    index, query, k, label, allowed=None, stats=None, ef_search=None,
    label_edges=None,
) -> Hits:
    """``FilteredHnswIndex.search(query, k, label=label)`` through the
    per-query closure over the stitched edges (``label_edges``, computed
    when not given), charged by ``GraphIndex._beam``'s rule."""
    stats = stats if stats is not None else SearchStats()
    if label_edges is None:
        label_edges = _label_edges_reference(index)
    key = label.item() if isinstance(label, np.generic) else label
    entry = index._label_entries.get(key)
    if entry is None:
        return Hits.EMPTY
    label_mask = index.labels == label

    def stitched_neighbors(node: int) -> np.ndarray:
        base = index.adjacency[node]
        extra = label_edges.get(node)
        if extra is None or extra.size == 0:
            return base
        return np.unique(np.concatenate([base, extra]))

    def neighbors(node: int) -> np.ndarray:
        stitched = stitched_neighbors(node)
        return stitched[label_mask[stitched]]

    ef = max(k, ef_search if ef_search is not None else index.ef_search)
    visited_before = stats.nodes_visited
    dists, positions = beam_search(
        query, index._vectors, _Rows(neighbors), [entry], ef, index.score,
        stats=stats, allowed=allowed, ids=index._ids, aux=index._key_aux(),
    )
    if allowed is not None:
        stats.predicate_evaluations += stats.nodes_visited - visited_before
    stats.candidates_examined += positions.size
    return Hits(index._ids[positions[:k]], dists[:k])


def squared_distances_reference(
    points: np.ndarray, centroids: np.ndarray, c_sq: np.ndarray | None = None
) -> np.ndarray:
    """(n, k) squared L2 distances, computed via the expansion identity
    (``c_sq``: the centroids' squared norms, when the caller keeps them)."""
    p_sq = np.einsum("ij,ij->i", points, points)[:, None]
    if c_sq is None:
        c_sq = np.einsum("ij,ij->i", centroids, centroids)
    cross = points @ centroids.T
    return np.clip(p_sq + c_sq[None, :] - 2.0 * cross, 0.0, None)


def kmeans_pp_init_reference(
    data: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding: spread initial centroids by D^2 sampling."""
    n = data.shape[0]
    centroids = np.empty((k, data.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centroids[0] = data[first]
    closest_sq = squared_distances_reference(data, centroids[:1]).ravel()
    for i in range(1, k):
        total = closest_sq.sum()
        if total <= 0:
            # All points coincide with chosen centroids; fill randomly.
            centroids[i] = data[int(rng.integers(n))]
            continue
        probs = closest_sq / total
        choice = int(rng.choice(n, p=probs))
        centroids[i] = data[choice]
        new_sq = squared_distances_reference(data, centroids[i : i + 1]).ravel()
        np.minimum(closest_sq, new_sq, out=closest_sq)
    return centroids


def kmeans_reference(
    data: np.ndarray,
    k: int,
    max_iterations: int = 25,
    tolerance: float = 1e-4,
    seed: int | None = 0,
) -> KMeansResult:
    """Fit k centroids to ``data`` with Lloyd's algorithm.

    Raises ``ValueError`` if ``k`` exceeds the number of points.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError("data must be a 2-D matrix")
    n = data.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    rng = np.random.default_rng(seed)

    centroids = kmeans_pp_init_reference(data, k, rng)
    assignments = np.zeros(n, dtype=np.int64)
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        sq = squared_distances_reference(data, centroids)
        assignments = sq.argmin(axis=1)
        new_centroids = np.empty_like(centroids)
        counts = np.bincount(assignments, minlength=k)
        sums = np.zeros_like(centroids)
        np.add.at(sums, assignments, data)
        nonempty = counts > 0
        new_centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
        # Empty-cluster repair: reseed from the farthest points.
        empties = np.flatnonzero(~nonempty)
        if empties.size:
            farthest = np.argsort(sq[np.arange(n), assignments])[::-1]
            for slot, point in zip(empties, farthest):
                new_centroids[slot] = data[point]
        shift = float(np.linalg.norm(new_centroids - centroids, axis=1).max())
        centroids = new_centroids
        if shift < tolerance:
            break

    sq = squared_distances_reference(data, centroids)
    assignments = sq.argmin(axis=1)
    inertia = float(sq[np.arange(n), assignments].sum())
    return KMeansResult(
        centroids=centroids,
        assignments=assignments,
        inertia=inertia,
        iterations=iterations,
    )


def assign_reference(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid index for each point."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    return squared_distances_reference(
        points, np.asarray(centroids, dtype=np.float64)
    ).argmin(axis=1)


def assign_topn_reference(
    points: np.ndarray, centroids: np.ndarray, n: int
) -> np.ndarray:
    """Indices of the n nearest centroids per point (for multi-probe/closure)."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    sq = squared_distances_reference(points, np.asarray(centroids, dtype=np.float64))
    n = min(n, sq.shape[1])
    part = np.argpartition(sq, n - 1, axis=1)[:, :n]
    rows = np.arange(sq.shape[0])[:, None]
    order = np.argsort(sq[rows, part], axis=1)
    return part[rows, order]


def ivfadc_search_reference(
    core: IvfAdc, query: np.ndarray, k: int, nprobe: int = 8
) -> tuple[np.ndarray, np.ndarray, IvfAdcSearchStats]:
    """Per-cell float-table ADC scan of a trained ``core``: (ids,
    squared_distances, stats) of the top-k.

    Intentionally kept cell-at-a-time (one table build and one lookup
    per probed cell) so the batched and blocked scans have a faithful
    reference to be measured and tested against.
    """
    query = np.asarray(query, dtype=np.float64).reshape(-1)
    cells, ids = core.probe(query, nprobe)
    dists = [
        core.pq.lookup(
            core.pq.adc_table(query - core.centroids[cell]), core._cell_codes[cell]
        )
        for cell in cells
    ]
    return core._top(ids, np.concatenate(dists or [np.empty(0)]), k, len(cells))


@dataclass(slots=True)
class TreeNode:
    """One tree node; ``positions is not None`` marks a leaf."""

    positions: np.ndarray | None = None
    w: np.ndarray | None = None
    t: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.positions is not None


def build_tree_reference(positions, vectors, choose_split, leaf_size, rng) -> TreeNode:
    """Recursively partition ``positions`` into a binary tree;
    ``choose_split(rows, rng)``."""
    if positions.shape[0] <= leaf_size:
        return TreeNode(positions=positions)
    split = choose_split(vectors[positions], rng)
    if split is None:
        return TreeNode(positions=positions)
    w, t = split
    proj = vectors[positions] @ w
    go_left = proj < t
    # Degenerate split (all points one side): fall back to a leaf rather
    # than recursing forever.
    if go_left.all() or not go_left.any():
        return TreeNode(positions=positions)
    return TreeNode(
        w=w,
        t=t,
        left=build_tree_reference(positions[go_left], vectors, choose_split, leaf_size, rng),
        right=build_tree_reference(positions[~go_left], vectors, choose_split, leaf_size, rng),
    )


def build_pca_tree_reference(data, axes, leaf_size, rotate) -> TreeNode:
    """The PCA tree's own recursive builder (its split depends on depth)."""

    def build(positions: np.ndarray, depth: int) -> TreeNode:
        if positions.shape[0] <= leaf_size:
            return TreeNode(positions=positions)
        rows = data[positions]
        if rotate:
            w = axes[depth % axes.shape[0]]
        else:
            # Strongest axis locally: max projection variance.
            variances = (rows @ axes.T).var(axis=0)
            w = axes[int(variances.argmax())]
        proj = rows @ w
        t = float(np.median(proj))
        go_left = proj < t
        if go_left.all() or not go_left.any():
            return TreeNode(positions=positions)
        return TreeNode(
            w=w,
            t=t,
            left=build(positions[go_left], depth + 1),
            right=build(positions[~go_left], depth + 1),
        )

    return build(np.arange(data.shape[0], dtype=np.int64), 0)


def best_first_search_reference(
    roots, query, max_leaves, exact_l2_k=None, eligible=None
) -> tuple[np.ndarray, int]:
    """(unique candidate positions, leaves visited) from the trees under
    ``roots`` through one shared queue."""
    counter = itertools.count()  # tiebreak heap entries
    heap: list[tuple[float, int, TreeNode]] = []
    for root in roots:
        heapq.heappush(heap, (0.0, next(counter), root))

    candidates: list[np.ndarray] = []
    leaves_visited = 0
    # Branch-and-bound state for exact mode.
    best_dists: np.ndarray | None = None
    if exact_l2_k is not None:
        vectors, k = exact_l2_k

    while heap:
        bound, _, node = heapq.heappop(heap)
        if exact_l2_k is not None and best_dists is not None:
            if best_dists.shape[0] >= k and bound > best_dists[k - 1]:
                break
        while not node.is_leaf:
            margin = float(query @ node.w - node.t)
            near, far = (node.left, node.right) if margin < 0 else (node.right, node.left)
            heapq.heappush(heap, (max(bound, abs(margin)), next(counter), far))
            node = near
        candidates.append(node.positions)
        leaves_visited += 1
        if exact_l2_k is not None:
            gathered = np.unique(np.concatenate(candidates))
            if eligible is not None:
                gathered = gathered[eligible[gathered]]
            diff = vectors[gathered] - query
            d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            best_dists = np.sort(d)
        if max_leaves is not None and leaves_visited >= max_leaves:
            break

    if not candidates:
        return np.empty(0, dtype=np.int64), 0
    return np.unique(np.concatenate(candidates)), leaves_visited


def merged_scan_reference(self, r, vector, k, stats, op, radius=None) -> Hits:
    """``QueryExecutor._scan`` as it merged an index's answer with its
    tail's: the strategy runs for ``k`` + the rewritten rows (``held``,
    which the index holds at an old vector and which are dropped from
    its answer), the tail rows the query's mask allows are scanned on
    their own, and ``Hits.merge`` ranks the two answers in
    ``(distance, id)`` order.  Patch it over ``QueryExecutor._scan``."""
    if r.tail is None:
        try:
            return self._operator(r, vector, k, stats, op, radius)
        except IndexNotBuiltError:
            if r.index.built_at is None:
                raise
            return Hits.EMPTY
    positions, held = r.tail
    indexed = Hits.EMPTY
    if len(r.index):
        fetch = k if radius is not None else k + held
        indexed = self._operator(r, vector, fetch, stats, op, radius)
        if held:
            indexed = indexed.where(~np.isin(indexed.ids, positions[:held]))
    rows = r.tail_allowed(stats, op)
    collection = r.collection
    score = self.db.score
    with op.child("tail_scan", rows=int(rows.size)).attach_stats(stats):
        tail = scan_topk(
            score, vector, collection.vectors, k, aux=collection.row_aux(score),
            positions=rows, radius=radius, stats=stats,
        )
    return Hits.merge([indexed, tail], k)
