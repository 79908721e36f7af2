"""Index-supported incremental search (§2.6(5), an open problem).

"Applications such as e-commerce rely on incremental search, where the
result set is seamlessly fetched in parts ... it is unclear how to
support this search within vector indexes."

This module implements the natural answer for graph indexes: a
**resumable best-first search**.  :class:`IncrementalSearcher` keeps the
traversal frontier alive between calls; each ``next_batch(k)`` pops the
next k nearest unreported nodes, expanding the graph only as far as
needed to certify them.  Compared to re-running search with growing k
(the workaround real systems use), the frontier is shared across pages,
so page i+1 costs only the *additional* expansion.

For non-graph indexes the same interface is provided by the fallback
:class:`RestartIncrementalSearcher` (re-query with doubled k), which is
also the baseline the E15 ablation bench compares against.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

from ..core.types import Hits, SearchHit, SearchStats
from ..hybrid.predicates import Predicate
from ..index._scan import scan_topk


class IncrementalSearcher:
    """Resumable best-first search over a graph index.

    Parameters
    ----------
    index:
        A :class:`~repro.index.graph_base.GraphIndex`.
    query:
        The query vector.
    predicate / collection:
        With a collection, only its live rows that pass the (optional)
        predicate are *reported*; blocked nodes remain traversable
        (visit-first semantics).  The rows written since the index was
        built (its tail) are scored exactly when the cursor opens and
        reported from the pool in their place in the order — a rewritten
        row at its new vector only.
    slack:
        Certification slack: a node is reported once the nearest
        frontier distance exceeds ``slack`` times its distance.  1.0
        reports greedily in frontier order (may locally mis-order on an
        approximate graph); larger values delay reporting for better
        ordering.
    """

    def __init__(
        self,
        index,
        query: np.ndarray,
        predicate: Predicate | None = None,
        collection=None,
        slack: float = 1.0,
        max_visits_per_batch: int | None = None,
    ):
        self.index = index
        self.query = np.asarray(query, dtype=np.float32)
        self.score = index.score
        self._neighbors_of = index.csr_adjacency
        self._mask = (
            None if collection is None else collection.predicate_mask(predicate)
        )
        self.slack = slack
        self.max_visits_per_batch = max_visits_per_batch
        self.stats = SearchStats(plan_name="incremental")

        self._counter = itertools.count()
        self._visited: set[int] = set()
        # Frontier of unexpanded nodes (by position) and pool of
        # expanded-but-unreported items (by id), both keyed by distance.
        self._frontier: list[tuple[float, int, int]] = []
        self._pool: list[tuple[float, int, int]] = []
        self._reported: set[int] = set()
        self.exhausted = False

        entry = index.entry_point
        dist = self.score.distances(self.query, index._vectors[entry : entry + 1])[0]
        self.stats.distance_computations += 1
        heapq.heappush(self._frontier, (float(dist), next(self._counter), entry))
        self._visited.add(entry)

        # The allowed tail rows, scored exactly and farthest first: each is
        # reported (popped) just before the first pool head it beats.
        self._tail: list[SearchHit] = []
        tail = None if collection is None else collection.tail(index.built_at)
        if tail is not None:
            rows = tail[0][self._mask[tail[0]]]
            # The graph holds the tail rows at an old vector or not at all.
            self._mask[tail[0]] = False
            self._tail = list(scan_topk(
                self.score, self.query, collection.vectors, rows.size,
                aux=collection.row_aux(self.score), positions=rows,
                stats=self.stats,
            ))[::-1]

    def _passes(self, item_id: int) -> bool:
        if self._mask is None:
            return True
        self.stats.predicate_evaluations += 1
        ok = bool(self._mask[item_id])
        if not ok:
            self.stats.predicate_rejections += 1
        return ok

    def _expand(self) -> bool:
        """Expand the nearest frontier node into the pool; False if done."""
        if not self._frontier:
            return False
        d, _, pos = heapq.heappop(self._frontier)
        self.stats.nodes_visited += 1
        item_id = int(self.index._ids[pos])
        if self._passes(item_id):
            heapq.heappush(self._pool, (d, next(self._counter), item_id))
        fresh = [
            int(nb) for nb in self._neighbors_of(pos) if int(nb) not in self._visited
        ]
        if fresh:
            self._visited.update(fresh)
            nd = self.score.distances(
                self.query, self.index._vectors[np.asarray(fresh)]
            )
            self.stats.distance_computations += len(fresh)
            for dist, nb in zip(nd, fresh):
                heapq.heappush(
                    self._frontier, (float(dist), next(self._counter), nb)
                )
        return True

    def next_batch(self, k: int) -> list[SearchHit]:
        """Fetch the next k results (ascending distance, no repeats).

        Returns fewer than k only when the reachable (and passing) part
        of the graph is exhausted.
        """
        out: list[SearchHit] = []

        def report_next() -> None:
            """The pool head, or the tail row that comes before it."""
            if self._tail and not (
                self._pool and self._pool[0][0] < self._tail[-1].distance
            ):
                hit = self._tail.pop()
            else:
                d, _, item_id = heapq.heappop(self._pool)
                hit = SearchHit(item_id, float(d))
            if hit.id not in self._reported:
                self._reported.add(hit.id)
                out.append(hit)

        budget = self.max_visits_per_batch
        visits = 0
        while len(out) < k:
            pool_head = self._pool[0][0] if self._pool else np.inf
            frontier_head = self._frontier[0][0] if self._frontier else np.inf
            # Report the pool head once no frontier node could beat it.
            if self._pool and pool_head * self.slack <= frontier_head:
                report_next()
                continue
            if not self._expand():
                # Frontier empty: drain the pool, then we are exhausted.
                while (self._pool or self._tail) and len(out) < k:
                    report_next()
                if not (self._pool or self._tail):
                    self.exhausted = True
                break
            visits += 1
            if budget is not None and visits >= budget and not self._pool:
                break
        return out

    @property
    def results_reported(self) -> int:
        return len(self._reported)


class RestartIncrementalSearcher:
    """Baseline: paginate by re-running search with a growing k.

    Works on any index; each page re-pays the whole traversal — the
    cost E15 quantifies against :class:`IncrementalSearcher`.
    """

    def __init__(self, index, query: np.ndarray, **search_params):
        self.index = index
        self.query = query
        self.search_params = search_params
        self.stats = SearchStats(plan_name="incremental_restart")
        self._served = 0
        self.exhausted = False

    def next_batch(self, k: int) -> Hits:
        total = self._served + k
        params = dict(self.search_params)
        # Widen the beam along with k so deep pages stay accurate.
        if "ef_search" not in params:
            params["ef_search"] = max(64, 2 * total)
        hits = self.index.search(self.query, total, stats=self.stats, **params)
        page = hits[self._served :]
        self._served += len(page)
        if len(hits) < total:
            self.exhausted = True
        return page
