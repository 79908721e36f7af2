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
Visit-first scan (HQANN [87], Filtered-DiskANN [43]) is the same beam
with ``penalty`` > 1: a blocked node's *frontier* key is inflated by
``(penalty - 1) * |distance|`` (:func:`_penalised`), so expansion
prefers passing nodes; results still rank by true distances.

``beam_search`` ranks its frontier through one *key source*: by default
the score's exact keys (the GEMV form below, or ``distances``; penalised
keys are distances, so the inflation is in distance units), or a
``key_source`` the caller hands in — DiskANN's ADC code keys
(:func:`code_keys`), whose rows sit on disk pages its adjacency reads.

The traversal is written once, as rounds (see ``docs/performance.md``,
"Graph kernels"): :func:`_round` pops up to ``width`` frontier nodes
that still beat the beam bound, gathers their neighbor rows in one
``take``, drops what was seen and de-duplicates; the whole round is
then ranked by **one** ``Score.keys`` call — the GEMV form of
:mod:`repro.index._scan`, over a position gather — and exact
``score.distances`` run only on the final pool, under the same key /
re-score / certificate contract as ``scan_topk``.  :func:`beam_search`
is that step over heap pools, one query at a time;
:func:`lockstep_beam_search` runs g independent beams in array pools,
one paired-key call per round, for the builds' blocks of construction
searches; :func:`greedy_walk` ranks by the same keys.  Every kernel
answers in arrays: ``(dists, positions)`` sorted by (distance,
position).  ``width=1`` under a score
whose keys are its distances is strict best-first order, which is what
the scalar oracle in ``tests/oracles.py`` is held against
(``tests/test_kernels.py``).

A built graph has one form: a ``(n, R)`` int32 matrix of neighbor
slots padded with ``n`` plus a degree vector (:func:`pack_slots`),
``R`` its widest row.  The kernels gather popped rows from it with one
``take``, and every kernel marks position ``n`` as seen, so the padding
is never scored.  While a graph is being built its rows may also be
anything indexable by position (a ``list[np.ndarray]``, HNSW's upper
layer tables), gathered one ``adjacency[v]`` a node; so is DiskANN's
graph, whose ``[v]`` reads node v's page.

Edge selection for a whole wave of new nodes is one array pass too:
:func:`robust_prune_wave` runs every member's :func:`robust_prune` in
lockstep, and :func:`scatter_links` adds a wave's reverse edges to a
slot matrix, re-selecting (as :func:`link` does) only the rows that
overflow.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from collections.abc import Callable

import numpy as np

from ..core.types import SearchStats
from ..scores import Score

#: The list form a graph is built in: one int64 array of neighbor
#: positions per node position.  :func:`pack_slots` turns it into the
#: built form.
Adjacency = list[np.ndarray]

#: Frontier nodes expanded per round by both beam kernels once their
#: pools are full (:func:`_round`, :func:`_pop`).  Wider rounds amortize
#: the per-round numpy fixed costs over more gathered neighbors; narrower
#: rounds track the beam bound more tightly.  8 is a good trade for
#: degree ~16-100 graphs; 1 is strict best-first order.
BATCH_POP_WIDTH = 8
#: A traversal ranked by ``Score.keys`` stands when the score's
#: ``key_margin`` (the rounding of the GEMV form) is under 1/KEY_TRUST
#: of the key spread of the pool it filled; otherwise the keys cannot
#: order that pool and the traversal is redone by ``distances``.
KEY_TRUST = 16

_INF = float("inf")


def pack_slots(rows) -> tuple[np.ndarray, np.ndarray]:
    """A built graph's rows as its one form: the ``(n, R)`` int32 slot
    matrix, row ``v``'s first ``degree[v]`` cells its neighbors and the
    rest ``n``, ``R`` the widest row; and the int32 degree vector."""
    n = len(rows)
    degree = np.fromiter(map(len, rows), dtype=np.int32, count=n)
    width = int(degree.max()) if n else 0
    slots = np.full((n, width), n, dtype=np.int32)
    if width:
        slots[np.arange(width) < degree[:, None]] = np.concatenate(rows)
    return slots, degree


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
    """Ranking keys of the rows at ``positions`` for one query -> (m,):
    one ``Score.keys`` GEMV when ``aux`` carries the score's auxiliary,
    its ``distances`` otherwise.
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


def code_keys(table: np.ndarray, codes: np.ndarray) -> Callable:
    """The ADC key source (DiskANN's PQ-guided frontier): row ``p``'s
    key is ``sum_j table[j, codes[p, j]]`` — per round one gather of the
    positions' codes and one ``take`` from the flattened ``(m, ks)``
    table (a third cheaper than a two-axis fancy index).  Charges one
    distance computation per key, as :func:`_keys` does."""
    flat = table.ravel()
    offsets = np.arange(table.shape[0]) * table.shape[1]

    def keys(positions, stats) -> np.ndarray:
        found = flat.take(codes.take(positions, axis=0) + offsets).sum(axis=1)
        if stats is not None:
            stats.distance_computations += found.size
        return found

    return keys


def _penalised(keys, ok, penalty: float) -> np.ndarray:
    """Visit-first's frontier keys: a blocked node's (``ok`` False) key
    inflated by ``(penalty - 1) * |key|``, a non-negative amount, so it
    never sorts before its true key — under ``ip`` too, whose distances
    are negative and a plain ``key * penalty`` would pull it ahead."""
    if ok is None:
        return keys
    return np.where(ok, keys, keys + (penalty - 1.0) * np.abs(keys))


def _trusted(score, query, aux, spread: float) -> bool:
    """The key certificate (see :data:`KEY_TRUST`) for one filled pool."""
    return score.key_margin(query, aux[1]) * KEY_TRUST <= spread


def _round(frontier, bound, width, adjacency, stamp, stats) -> np.ndarray | None:
    """One round of :func:`beam_search`: pop up to ``width``
    frontier nodes that still beat ``bound`` (one while there is no
    bound), gather their neighbor rows (one ``take`` from a slot matrix,
    one concatenation of ``adjacency[v]`` otherwise), and return the
    neighbors never seen before — each once, in gather order, stamped as
    seen.  None once no frontier node beats the bound (the traversal is
    over)."""
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
    if isinstance(adjacency, np.ndarray):  # slot rows: padding is stamped
        nbrs = adjacency.take(batch, axis=0).astype(np.int64).ravel()
    else:
        parts = [adjacency[v] for v in batch]
        nbrs = np.asarray(
            parts[0] if len(parts) == 1 else np.concatenate(parts), dtype=np.int64
        )
    fresh = nbrs[stamp[nbrs] == 0]
    return fresh[_last(fresh, stamp)]


def _stamp(n: int) -> np.ndarray:
    """A fresh seen-stamp over ``n`` positions plus position ``n``, the
    padding of a slot matrix, which is stamped seen from the start."""
    stamp = np.zeros(n + 1, dtype=np.int32)
    stamp[n] = 1
    return stamp


def _last(cells: np.ndarray, stamp: np.ndarray) -> np.ndarray:
    """Mask of each cell's last occurrence in ``cells``, without
    reordering: every occurrence writes its own ticket into ``stamp``
    and reads the cell back; of a repeated cell only the last write
    survives (numpy's documented rule for repeated indices).  The cells
    are left stamped nonzero."""
    tickets = np.arange(1, cells.size + 1, dtype=stamp.dtype)
    stamp[cells] = tickets
    return stamp[cells] == tickets


def beam_search(
    query: np.ndarray,
    vectors: np.ndarray,
    adjacency,  # a slot matrix, or anything with adjacency[v] (build time)
    entry_points: np.ndarray | list[int],
    ef: int,
    score: Score,
    stats: SearchStats | None = None,
    allowed: np.ndarray | None = None,
    ids: np.ndarray | None = None,
    aux: tuple[np.ndarray, np.ndarray] | None = None,
    width: int = BATCH_POP_WIDTH,
    penalty: float = 1.0,
    key_source: Callable | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Best-first search; returns up to ``ef`` ``(dists, positions)``.

    Round-based: each round expands up to ``width`` frontier nodes
    (:func:`_round`; one until the pool is full) and ranks everything
    they reach with **one** call of the key source.  Ranked by the
    score's GEMV keys (``aux``), exact ``score.distances`` run once, on
    the final pool, so the distances returned are the ones a plain scan
    returns; under any other source the keys are the distances
    returned.  The pool is ordered by them (ties by position): float64
    distances, int64 positions.
    ``width=1`` without ``aux`` is strict best-first order.

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
    penalty:
        Visit-first's bias: a blocked node's frontier key is
        :func:`_penalised`.  Penalised keys are distances (``aux`` is
        not used); 1 is the plain masked beam.
    key_source:
        ``(positions, stats) -> keys``, charging one distance
        computation per key (:func:`code_keys`), in place of the
        score's keys; its keys are the returned distances, not
        re-scored.
    """
    entry = _entries(entry_points)
    if ef <= 0 or vectors.shape[0] == 0 or entry.size == 0:
        return np.empty(0), np.empty(0, dtype=np.int64)
    if key_source is not None or penalty != 1:
        aux = None  # the keys are the pool's distances
    if key_source is None:
        key_source = functools.partial(_keys, score, query, vectors, aux)
    heappush, heappushpop = heapq.heappush, heapq.heappushpop
    ids = None if ids is None else np.asarray(ids)
    stamp = _stamp(vectors.shape[0])
    stamp[entry] = 1

    # Every seed enters the frontier (a min-heap by key); the ef best
    # allowed ones are the first results (a max-heap of the ef best
    # allowed nodes seen, whose worst key is ``bound`` once it is full).
    ok = _admissible(entry, allowed, ids)
    keys = key_source(entry, stats)
    if penalty != 1:
        keys = _penalised(keys, ok, penalty)
    frontier = list(zip(keys.tolist(), entry.tolist()))
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
        keys = key_source(fresh, stats)
        if penalty != 1:
            keys = _penalised(keys, _admissible(fresh, allowed, ids), penalty)
        if bound < _INF:
            # The bound only shrinks: a key at or over it can never be
            # admitted, so drop it before touching the heaps.
            keep = keys < bound
            fresh, keys = fresh[keep], keys[keep]
        ok = _admissible(fresh, allowed, ids)
        # tolist() once: numpy scalar extraction inside the loop costs
        # ~100ns per element.  A blocked node's key is its frontier key;
        # it never enters the results.
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

    if aux is not None and len(results) >= ef and not _trusted(
        score, query, aux, max(results)[0] - results[0][0]
    ):
        return beam_search(
            query, vectors, adjacency, entry, ef, score, stats, allowed, ids,
            width=width,
        )
    nodes = np.fromiter((node for _, node in results), np.int64, len(results))
    if aux is None:  # the keys are the distances
        dists = -np.fromiter((key for key, _ in results), np.float64, len(results))
    else:
        dists = score.distances(query, vectors.take(nodes, axis=0))
        dists = dists.astype(np.float64, copy=False)
    order = np.lexsort((nodes, dists))
    return dists[order], nodes[order]


def _merge(pool_k, block_k, *columns):
    """Merge a scored block into every row's pool at once: one
    ``argpartition`` keeps each row's ``ef`` (the pool width) smallest
    keys of ``pool_k | block_k``, and every ``(pool, block)`` pair in
    ``columns`` follows its keys.  Returns the new pool keys, then the
    new pool columns."""
    ef = pool_k.shape[1]
    cat_k = np.concatenate([pool_k, block_k], axis=1)
    part = np.argpartition(cat_k, ef - 1, axis=1)[:, :ef]
    # Flat positions: one take() per array is cheaper than take_along_axis.
    part += np.arange(0, cat_k.size, cat_k.shape[1])[:, None]
    return (
        cat_k.take(part),
        *(np.concatenate(c, axis=1).take(part) for c in columns),
    )


def _final_pools(score, queries, vectors, aux, keys, positions):
    """Every member's answer from its array pool at once: its real
    (finite-key) entries, re-scored by ``distances`` when ranked by
    keys, sorted by (distance, position).

    The re-score is one paired row gather and one
    ``Score.paired_distances`` call over the ``(g, ef)`` pools, whose
    elements are the ones ``distances`` returns; a score without that
    form is re-scored one ``distances`` call per member.  The key
    certificate (:data:`KEY_TRUST`) is read for every full pool at once
    and one row-wise ``lexsort`` orders them all.  Returns ``(dists,
    positions, failed)``: ``(g, ef)`` pools padded with ``(inf, n)`` and
    the members whose full pool fails the certificate — the caller
    searches those again by ``distances``."""
    n = vectors.shape[0]
    real = np.isfinite(keys)
    positions = np.where(real, positions, n)
    failed = np.zeros(keys.shape[0], dtype=bool)
    if aux is None:  # the keys are the distances
        dists = np.where(real, keys, _INF)
    else:
        full = real.all(axis=1)
        for m in np.flatnonzero(full).tolist():
            failed[m] = not _trusted(
                score, queries[m], aux, float(keys[m].max() - keys[m].min())
            )
        rows = vectors.take(np.where(real, positions, 0), axis=0)
        dists = score.paired_distances(queries[:, None, :], rows)
        if dists is None:
            dists = np.full(keys.shape, _INF)
            for m, (row, mask) in enumerate(zip(positions, real)):
                if mask.any():
                    dists[m, mask] = score.distances(
                        queries[m], vectors.take(row[mask], axis=0)
                    )
        dists = np.where(real, dists, _INF)
    order = np.lexsort((positions, dists), axis=1)
    return (
        np.take_along_axis(dists, order, axis=1).astype(np.float64, copy=False),
        np.take_along_axis(positions, order, axis=1),
        failed,
    )


def _paired_keys(score, queries, vectors, aux, tags, positions) -> np.ndarray:
    """Ranking keys of a ragged block: the row at ``positions[i]`` keyed
    against ``queries[tags[i]]``, ``tags`` ascending.  One
    ``Score.paired_keys`` call when ``aux`` carries the score's GEMV
    form; else the keys are the distances, one ``distances`` call per
    member's run of rows."""
    rows = vectors.take(positions, axis=0)
    if aux is not None:
        return score.paired_keys(
            queries.take(tags, axis=0), rows, aux[0].take(positions)
        )
    keys = np.empty(positions.size, dtype=np.float64)
    cuts = [0, *(np.flatnonzero(np.diff(tags)) + 1).tolist(), positions.size]
    for a, b in itertools.pairwise(cuts):
        keys[a:b] = score.distances(queries[tags[a]], rows[a:b])
    return keys


def _distinct(cells: np.ndarray, stamp: np.ndarray) -> np.ndarray:
    """Mask of one occurrence of every distinct value in ``cells``
    (non-negative ints): :func:`_last` over the cells hashed into
    ``stamp``, whose size is a power of two.  A row whose slot went to
    a different cell goes round again."""
    keep = np.zeros(cells.size, dtype=bool)
    todo = np.arange(cells.size)
    while todo.size:
        rows = cells[todo]
        slots = rows & (stamp.size - 1)
        keep[todo[_last(slots, stamp)]] = True
        # Tickets number ``todo``: each slot now names its winner.
        todo = todo[cells[todo[stamp[slots] - 1]] != rows]
    return keep


def _pop(pool_k, pool_i, full, width):
    """Each member's next expansions: up to ``width`` unexpanded pool
    nodes (``pool_i >= 0``), the best one alone while its pool is not
    full (the rule :func:`_round` follows).  Returns ``(columns,
    taken)``, both (g, w)."""
    open_k = np.where(pool_i >= 0, pool_k, _INF)
    best = open_k.argmin(axis=1)[:, None]
    if width == 1 or not full.any():
        cols = best
    elif width < open_k.shape[1]:
        cols = np.argpartition(open_k, width - 1, axis=1)[:, :width]
    else:
        cols = np.argsort(open_k, axis=1)
    rows = np.arange(0, open_k.size, open_k.shape[1])[:, None]
    taken = np.isfinite(open_k.take(cols + rows))
    if cols is not best and not full.all():
        partial = ~full
        cols[partial, 0] = best[partial, 0]
        taken[partial] = False
        taken[partial, 0] = np.isfinite(open_k[partial, best[partial, 0]])
    return cols, taken


#: Most members one :func:`lockstep_beam_search` call runs at once: one
#: bit each in a node's ``uint64`` seen mask.  Larger groups are split.
LOCKSTEP_MAX_GROUP = 64
#: Slots of the hashed stamp :func:`_distinct` de-duplicates a round's
#: ``(member, node)`` pairs in (a fixed 256 KiB, whatever the graph's
#: size); a round's few hundred to few thousand pairs rarely collide.
_PAIR_SLOTS = 1 << 16


def lockstep_beam_search(
    queries: np.ndarray,
    vectors: np.ndarray,
    adjacency,  # a slot matrix, or anything with adjacency[v] (build time)
    entries_per_member: list,
    ef: int,
    score: Score,
    aux: tuple[np.ndarray, np.ndarray] | None = None,
    width: int = BATCH_POP_WIDTH,
) -> tuple[np.ndarray, np.ndarray]:
    """``g`` independent beam searches run in lockstep; each member's
    pool is what :func:`beam_search` returns for it up to near-ties.

    Returns ``(dists, positions)``, ``(g, ef)`` arrays whose row ``i``
    is member ``i``'s pool sorted by (distance, position) and padded
    with ``(inf, n)``.

    Nothing is shared between members: every member keeps its own
    pool (a row of ``(g, ef)`` arrays), its own seen set (one bit of a
    per-node mask) and its own bound, and seeds from
    ``entries_per_member[i]``.  Only the numpy calls are shared.  Each
    round every live member pops up to ``width`` unexpanded pool nodes
    (one while its pool is not full), the popped neighbor rows are
    gathered (one ``take`` from a slot matrix) tagged by member, cut to
    the ``(member, node)`` pairs never seen (:func:`_distinct`), ranked
    against each row's own query by one ``Score.paired_keys`` call, and
    admitted into every pool by one ``argpartition`` (:func:`_merge`).
    A member whose pool has nothing left to expand drops out of the
    arrays.  The final pools are re-scored exactly, certified and
    sorted together (:func:`_final_pools`); a member that fails is
    searched again by ``distances``.  A group of one is the solo kernel.
    """
    queries = np.atleast_2d(queries)
    g, n, ef = queries.shape[0], vectors.shape[0], max(ef, 0)
    if g > LOCKSTEP_MAX_GROUP:
        blocks = [
            lockstep_beam_search(
                queries[a : a + LOCKSTEP_MAX_GROUP], vectors, adjacency,
                entries_per_member[a : a + LOCKSTEP_MAX_GROUP], ef, score,
                aux, width,
            )
            for a in range(0, g, LOCKSTEP_MAX_GROUP)
        ]
        return tuple(np.concatenate(cols) for cols in zip(*blocks))
    seeds = [_entries(e) for e in entries_per_member]
    if g == 1 or ef == 0 or n == 0 or not any(e.size for e in seeds):
        # The solo kernel (which answers an empty beam at once).
        dists = np.full((g, ef), _INF)
        positions = np.full(dists.shape, n, dtype=np.int64)
        solo, solo_aux = range(g), aux
    else:
        keys, pools = _lockstep_pools(
            queries, vectors, adjacency, seeds, ef, score, aux, width
        )
        dists, positions, failed = _final_pools(
            score, queries, vectors, aux, keys, pools
        )
        solo, solo_aux = np.flatnonzero(failed).tolist(), None
    for m in solo:
        d, p = beam_search(
            queries[m], vectors, adjacency, seeds[m], ef, score,
            aux=solo_aux, width=width,
        )
        dists[m], positions[m] = _INF, n
        dists[m, : d.size], positions[m, : p.size] = d, p
    return dists, positions


def _lockstep_pools(queries, vectors, adjacency, seeds, ef, score, aux, width):
    """The rounds of :func:`lockstep_beam_search`: every member's final
    ``(g, ef)`` key pool and its positions (-1 in an empty cell)."""
    g, n = queries.shape[0], vectors.shape[0]
    member = np.array([m for m in range(g) if seeds[m].size], dtype=np.int64)
    matrix = isinstance(adjacency, np.ndarray)

    # Per-member state, one row per live member ("slot"): ``member``
    # maps a slot to its query, ``bit`` to its bit in ``seen``.  A pool
    # position p >= 0 is unexpanded; once expanded it is stored as
    # -2 - p (-1 marks an empty cell).  A member that finishes leaves
    # its pool in ``final_k`` / ``final_i``.
    live_q = queries[member]
    bit = np.left_shift(np.uint64(1), member.astype(np.uint64))
    pool_k = np.full((member.size, ef), _INF)
    pool_i = np.full(pool_k.shape, -1, dtype=np.int64)
    final_k = np.full((g, ef), _INF)
    final_i = np.full(final_k.shape, -1, dtype=np.int64)
    bound = np.full(member.size, _INF)  # a member's worst pooled key
    seen = np.zeros(n + 1, dtype=np.uint64)
    seen[n] = ~np.uint64(0)  # slot padding: seen by every member
    stamp = np.zeros(_PAIR_SLOTS, dtype=np.int32)
    tags = np.repeat(np.arange(member.size), [seeds[m].size for m in member])
    positions = np.concatenate([seeds[m] for m in member])
    while True:
        if positions.size:
            np.bitwise_or.at(seen, positions, bit[tags])
            keys = _paired_keys(score, live_q, vectors, aux, tags, positions)
            # A key at or over its member's bound can never be admitted.
            keep = keys < bound[tags]
            if keep.any():
                tags, positions, keys = tags[keep], positions[keep], keys[keep]
                # Lay the ragged block out as one (g, widest) row block.
                counts = np.bincount(tags, minlength=member.size)
                col = np.arange(tags.size) - (np.cumsum(counts) - counts)[tags]
                block_k = np.full((member.size, int(counts.max())), _INF)
                block_i = np.full(block_k.shape, -1, dtype=np.int64)
                block_k[tags, col] = keys
                block_i[tags, col] = positions
                pool_k, pool_i = _merge(pool_k, block_k, (pool_i, block_i))
                bound = pool_k.max(axis=1)
        cols, taken = _pop(pool_k, pool_i, bound < _INF, width)
        done = ~taken.any(axis=1)
        if done.any():
            finished = member[done]
            final_k[finished] = pool_k[done]
            final_i[finished] = np.where(pool_i[done] < -1, -2 - pool_i[done], pool_i[done])
            live = ~done
            if not live.any():
                return final_k, final_i
            member, live_q, bit, bound = member[live], live_q[live], bit[live], bound[live]
            pool_k, pool_i = pool_k[live], pool_i[live]
            cols, taken = cols[live], taken[live]
        slots, which = np.nonzero(taken)
        picked = cols[slots, which]
        popped = pool_i[slots, picked]
        pool_i[slots, picked] = -2 - popped
        if matrix:
            positions = adjacency.take(popped, axis=0).astype(np.int64).ravel()
            tags = np.repeat(slots, adjacency.shape[1])
        else:
            parts = [adjacency[v] for v in popped.tolist()]
            tags = np.repeat(slots, [len(p) for p in parts])
            positions = np.asarray(np.concatenate(parts), dtype=np.int64)
        unseen = (seen[positions] & bit[tags]) == 0
        tags, positions = tags[unseen], positions[unseen]
        first = _distinct(tags * n + positions, stamp)
        tags, positions = tags[first], positions[first]


def greedy_walk(
    query: np.ndarray,
    vectors: np.ndarray,
    adjacency,  # anything with adjacency[v]: build-time lists, layer tables
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
    current, current_key = int(start), start_key
    if current_key is None:
        current_key = float(_keys(score, query, vectors, aux, [current], stats)[0])
    path = [current]
    while True:
        neighbors = adjacency[current]
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


def robust_prune_wave(
    candidate_positions: np.ndarray,
    candidate_distances: np.ndarray,
    vectors: np.ndarray,
    max_degree: int,
    score: Score,
    alpha: float = 1.0,
) -> np.ndarray:
    """:func:`robust_prune` for ``g`` independent candidate lists at once.

    Row ``i`` of the ``(g, L)`` inputs is one list, padded at its end
    with position ``n = len(vectors)``; row ``i`` of the returned
    ``(g, max_degree)`` matrix is what ``robust_prune`` keeps for it, in
    the same order, padded with ``n``.  The lists are scanned in
    lockstep: each step scores every live member's newest kept row
    against its still-standing later candidates only — one paired
    gather and one ``Score.paired_distances`` call for the whole wave,
    whose elements are the ones ``distances`` returns, so each member
    occludes exactly what its own scan would.  A score without that form
    runs ``robust_prune`` per member, as does a group of one.
    """
    g, width = candidate_positions.shape
    n = vectors.shape[0]
    real = candidate_positions < n
    # Stable, padding last: the order robust_prune's own sort gives.
    order = np.argsort(
        np.where(real, candidate_distances, _INF), axis=1, kind="stable"
    )
    positions = np.take_along_axis(candidate_positions, order, axis=1)
    dists = np.take_along_axis(candidate_distances, order, axis=1)
    count = real.sum(axis=1)
    if g == 1:
        return _prune_each(positions, dists, count, vectors, max_degree, score, alpha)
    kept = np.full((g, max_degree), n, dtype=np.int64)
    occluded = positions >= n
    cols = np.arange(width)
    nkept = np.zeros(g, dtype=np.int64)
    cur = np.zeros(g, dtype=np.int64)  # each member's latest kept column
    live = np.flatnonzero(count > 0)
    while live.size:
        at = cur[live]
        newest = positions[live, at]
        kept[live, nkept[live]] = newest
        nkept[live] += 1
        go = (nkept[live] < max_degree) & (at + 1 < count[live])
        live, at, newest = live[go], at[go], newest[go]
        standing = ~occluded[live] & (cols > at[:, None])
        rows, later = np.nonzero(standing)  # grouped by member, in order
        members = live[rows]
        d = score.paired_distances(
            np.repeat(vectors.take(newest, axis=0), standing.sum(axis=1), axis=0),
            vectors.take(positions[members, later], axis=0),
        )
        if d is None:
            return _prune_each(
                positions, dists, count, vectors, max_degree, score, alpha
            )
        hit = alpha * d < dists[members, later]
        occluded[members, later] = hit
        standing[rows, later] = ~hit
        left = standing.any(axis=1)
        live = live[left]
        cur[live] = standing[left].argmax(axis=1)
    return kept


def _prune_each(positions, dists, count, vectors, max_degree, score, alpha):
    """:func:`robust_prune_wave` one member at a time."""
    kept = np.full((positions.shape[0], max_degree), vectors.shape[0], dtype=np.int64)
    for i, c in enumerate(count.tolist()):
        row = robust_prune(positions[i, :c], dists[i, :c], vectors, max_degree, score, alpha)
        kept[i, : row.size] = row
    return kept


def scatter_links(
    slots: np.ndarray,
    degree: np.ndarray,
    nodes: np.ndarray,
    neighbors: np.ndarray,
    vectors: np.ndarray,
    score: Score,
    alpha: float = 1.0,
) -> None:
    """Add the edges ``nodes[i] -> neighbors[i]``, in order, to the slot
    matrix ``slots`` (row ``v``'s first ``degree[v]`` cells are its
    neighbors, the rest ``n``): what one :func:`link` call per edge does
    to the rows, with bound ``slots.shape[1]``.

    Edges are grouped by node with a stable sort, so each row receives
    its neighbors in their given order.  A row whose new neighbors all
    fit gets them as one slot scatter; a row that would overflow takes
    them one :func:`link` at a time, re-selected as ``link`` does (a
    row's re-selection reads only that row)."""
    if nodes.size == 0:
        return
    max_degree = slots.shape[1]
    order = np.argsort(nodes, kind="stable")
    nodes, neighbors = nodes[order], neighbors[order]
    starts = np.flatnonzero(np.r_[True, nodes[1:] != nodes[:-1]])
    counts = np.diff(np.r_[starts, nodes.size])
    heads = nodes[starts]
    fits = degree[heads] + counts <= max_degree
    each = np.repeat(fits, counts)
    rank = np.arange(nodes.size) - np.repeat(starts, counts)
    slots[nodes[each], degree[nodes[each]] + rank[each]] = neighbors[each]
    degree[heads[fits]] += counts[fits]
    for start, count in zip(starts[~fits].tolist(), counts[~fits].tolist()):
        node = int(nodes[start])
        table = {node: slots[node, : degree[node]].copy()}
        for neighbor in neighbors[start : start + count].tolist():
            link(table, node, neighbor, vectors, max_degree, score, alpha)
        row = table[node]
        slots[node, : row.size] = row
        slots[node, row.size :] = vectors.shape[0]
        degree[node] = row.size


def select_edges(
    node: int,
    dists: np.ndarray,
    positions: np.ndarray,
    adjacency,  # Adjacency or a layer table: anything with adjacency[node]
    vectors: np.ndarray,
    max_degree: int,
    score: Score,
    alpha: float = 1.0,
) -> np.ndarray:
    """Out-edges for ``node``: :func:`robust_prune` over its construction
    pool ``(dists, positions)`` (padding ``n`` ignored) unioned with its
    current neighbors (as the NSG and Vamana papers do; a node being
    inserted, as in HNSW, has none yet)."""
    keep = (positions != node) & (positions < vectors.shape[0])
    dists, positions = dists[keep], positions[keep]
    current = np.asarray(adjacency[node])
    # A broadcast compare, not np.isin: rows and pools are short, and
    # np.isin's np.unique imports numpy.ma (1.5 MB resident) on first use.
    fresh = (current[:, None] != positions).all(axis=1) & (current != node)
    missing = current[fresh]
    if missing.size:  # one call for all of them, in neighbor order
        positions = np.concatenate([positions, missing])
        dists = np.concatenate(
            [dists, score.distances(vectors[node], vectors[missing])]
        )
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
) -> int:
    """Attach unreachable components to their nearest reachable node.

    NSG runs exactly this spanning step after pruning.  An anchor keeps
    every edge it had and gains one, so it may end over its degree
    bound.  Returns the number of edges added.
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
        adjacency[anchor] = np.append(adjacency[anchor], orphan)
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
