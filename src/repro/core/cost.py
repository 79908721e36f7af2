"""One linear work→time model (§2.3 "Cost Based").

AnalyticDB-V [84] and Milvus [6, 79] "devise costs for several vector
operators in order to use a linear cost model that aggregates the I/O
and computation cost of each plan operator".  :class:`WorkCostModel` is
that model, and the only one here: it prices, in seconds, the work
counters the kernels charge (:class:`~repro.core.types.SearchStats`)
plus the fixed cost of one execution (by strategy), one coalesced
member, one plan-cache miss, one result-cache hit and one merged hit.
The cost-based selector prices each candidate plan's whole execution
with it — its strategy's fixed term plus its *estimated* counters,
through the same :meth:`WorkCostModel.execution_seconds` the fit solves
for; the serving front door and the simulated cluster price their
simulated clocks with it too.

The defaults are fitted, not assumed: ``benchmarks/fit_work_cost.py``
times ``db.search`` under every enumerated plan and solves
:meth:`WorkCostModel.fit`; the result is committed as the defaults below
and as ``benchmarks/results/work_cost.json`` with held-out residuals.
Nothing here reads a clock.  Bench E9 checks that ranking plans by the
estimates tracks the best executed plan across a selectivity sweep;
§2.6(3) ("cost estimation is difficult") shows up as the inflation
heuristics for blocked scans.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import ClassVar, Mapping, Sequence

import numpy as np

from .types import SearchStats

#: Per-unit prices and the ``SearchStats`` counter each one multiplies.
COUNTER_PRICES = {
    "distance": "distance_computations",
    "predicate": "predicate_evaluations",
    "page_read": "page_reads",
    "node_visit": "nodes_visited",
}

#: Fitted fixed seconds of one ``db.search`` execution, by strategy.
_EXECUTION = {
    "block_first": 7.903e-05,
    "brute_force": 1.645e-05,
    "index_scan": 0.0001232,
    "partition": 9.709e-05,
    "post_filter": 0.0001967,
    "pre_filter": 6.937e-05,
    "visit_first": 0.004358,
}


@dataclass(frozen=True)
class WorkCostModel:
    """Seconds per unit of work, and per fixed event.

    Defaults are the fit committed in ``benchmarks/results/work_cost.json``
    (a test holds them equal).  A scenario that wants a different price
    on purpose writes ``dataclasses.replace(WorkCostModel(), ...)``.
    """

    #: Seconds per distance computation (exact or on a code).
    distance: float = 3.185e-08
    #: Seconds per predicate evaluation.
    predicate: float = 2.964e-09
    #: Seconds per page read.
    page_read: float = 6.92e-06
    #: Seconds per graph / tree node visited.
    node_visit: float = 6.868e-06
    #: Fixed seconds of one execution, by plan strategy.
    execution: Mapping[str, float] = field(
        default_factory=lambda: dict(_EXECUTION)
    )
    #: Seconds each coalesced member adds to its batch beyond the first.
    member: float = 9.678e-05
    #: Seconds of one plan decision that missed the plan cache.
    plan_miss: float = 5.42e-05
    #: Seconds of one answer served from a result cache.
    cache_hit: float = 8.97e-07
    #: Seconds per hit a scatter-gather merges.
    merged_hit: float = 9.062e-07

    #: Inflation exponents for blocked traversal: searching a graph/tree
    #: index under a mask of selectivity s costs roughly base/(s^beta).
    #: Visit-first's predicate bias makes it cheaper than block-first at
    #: the same s (smaller beta); both are heuristics — §2.6(3) is open.
    BLOCK_FIRST_BETA: ClassVar[float] = 0.5
    VISIT_FIRST_BETA: ClassVar[float] = 0.3

    # ---------------------------------------------------------------- prices

    def work_seconds(self, stats: SearchStats) -> float:
        """The price of the work counters alone (no fixed terms)."""
        return (
            self.distance * stats.distance_computations
            + self.predicate * stats.predicate_evaluations
            + self.page_read * stats.page_reads
            + self.node_visit * stats.nodes_visited
        )

    def execution_seconds(self, strategy: str, stats: SearchStats) -> float:
        """One execution of ``strategy``: its fixed price plus its work."""
        return self.execution[strategy] + self.work_seconds(stats)

    # ------------------------------------------------------------ estimators

    def estimate(
        self, plan, index, n: int, k: int, selectivity: float, tail_rows: int = 0
    ) -> float:
        """Estimated seconds of one execution of a plan (see planner for
        strategies): :meth:`execution_seconds` of its
        :meth:`estimated_stats`, so the strategy's fixed term is priced as
        the fit measured it."""
        return self.execution_seconds(
            plan.strategy,
            self.estimated_stats(plan, index, n, k, selectivity, tail_rows),
        )

    def estimated_stats(
        self, plan, index, n: int, k: int, selectivity: float, tail_rows: int = 0
    ) -> SearchStats:
        """The work counters one execution of a plan is expected to charge.
        ``tail_rows`` were written since the plan's index was built: the
        executor scans the ones the predicate allows exactly, beside it."""
        s = min(max(selectivity, 1e-6), 1.0)
        strategy = plan.strategy
        if strategy == "brute_force":
            est = SearchStats(distance_computations=n)
        elif strategy == "pre_filter":
            est = SearchStats(predicate_evaluations=n, distance_computations=s * n)
        elif strategy == "index_scan":
            est = _index_scan_work(index, n, k, fetch=k)
        elif strategy == "block_first":
            est = _index_scan_work(index, n, k, fetch=k)
            if getattr(index, "family", "flat") in ("graph", "tree"):
                inflation = (1.0 / s) ** self.BLOCK_FIRST_BETA
                est.distance_computations *= inflation
                est.nodes_visited *= inflation
                est.page_reads *= inflation
            # The online bitmask, then one check per candidate scanned.
            est.predicate_evaluations += n + est.distance_computations
        elif strategy == "post_filter":
            oversample = getattr(plan, "oversample", None) or 1.0 / s
            fetch = min(n, int(np.ceil(oversample * k)))
            est = _index_scan_work(index, n, k, fetch=fetch)
            # The online bitmask, then one check per fetched hit.
            est.predicate_evaluations += n + fetch
        elif strategy == "visit_first":
            est = _index_scan_work(index, n, k, fetch=k)
            inflation = (1.0 / s) ** self.VISIT_FIRST_BETA
            est.distance_computations *= inflation
            est.nodes_visited *= inflation
            # The online bitmask, then one check per visited node.
            est.predicate_evaluations += n + est.distance_computations
        elif strategy == "partition":
            # Offline blocking: scan one partition of expected size s*n.
            est = _index_scan_work(index, max(1, int(s * n)), k, fetch=k) if index \
                else SearchStats(distance_computations=s * n)
        else:
            raise ValueError(f"unknown strategy {strategy!r}")
        est.distance_computations += tail_rows * s
        return est

    # ------------------------------------------------------------------- fit

    def fit(
        self,
        strategies: Sequence[str],
        stats: Sequence[SearchStats],
        seconds: Sequence[float],
    ) -> "WorkCostModel":
        """Least-squares prices for executions: each one's plan strategy,
        executed stats and measured seconds.

        Solves  seconds ~ Σ price·counter + execution[strategy]  for
        non-negative prices, weighting each pair by 1/seconds so that
        cheap and dear plans are fitted to the same *relative* error.
        Counters that are zero throughout and strategies absent from
        the pairs carry no evidence and keep this model's prices.
        Raises ``ValueError`` given fewer pairs than prices to fit.
        """
        if not len(strategies) == len(stats) == len(seconds):
            raise ValueError("need one strategy and seconds value per stats")
        names = list(COUNTER_PRICES)
        counters = np.array(
            [[getattr(s, COUNTER_PRICES[p]) for p in names] for s in stats],
            dtype=np.float64,
        ).reshape(len(stats), len(names))
        seen = counters.any(axis=0)
        prices = [p for p, used in zip(names, seen) if used]
        fixed = sorted(set(strategies))
        needed = max(1, len(prices) + len(fixed))
        if len(stats) < needed:
            raise ValueError(
                f"need at least {needed} observations to fit {needed}"
                f" prices, got {len(stats)}"
            )
        y = np.asarray(seconds, dtype=np.float64)
        if (y <= 0).any():
            raise ValueError("measured seconds must be positive")
        onehot = np.array(
            [[strategy == name for name in fixed] for strategy in strategies],
            dtype=np.float64,
        )
        design = np.column_stack([counters[:, seen], onehot])
        solution = _nnls(design / y[:, None], np.ones_like(y))
        fitted = dict(zip(prices, solution[: len(prices)].tolist()))
        execution = dict(self.execution)
        execution.update(zip(fixed, solution[len(prices):].tolist()))
        return replace(self, execution=execution, **fitted)


def _nnls(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """min ‖a·x − b‖ subject to x ≥ 0 (Lawson–Hanson active set), on
    unit-norm columns for conditioning."""
    scale = np.linalg.norm(a, axis=0)
    scale[scale == 0] = 1.0
    a = a / scale
    n = a.shape[1]
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    for _ in range(3 * n):
        gradient = a.T @ (b - a @ x)
        gradient[passive] = -np.inf
        if gradient.max() <= 1e-12:
            break
        passive[int(np.argmax(gradient))] = True
        while True:
            z = np.zeros(n)
            z[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
            if (z[passive] > 0).all():
                x = z
                break
            shrink = passive & (z <= 0)
            alpha = np.min(x[shrink] / (x[shrink] - z[shrink]))
            x = x + alpha * (z - x)
            passive &= x > 1e-15
            x[~passive] = 0.0
    return x / scale


def _index_scan_work(index, n: int, k: int, fetch: int) -> SearchStats:
    """Base (unpredicated) scan work for an index, by structure, in the
    counters its kernel charges.

    ``fetch`` is the result-set size actually requested (k, or a*k for
    post-filtering) — it inflates beam widths / rerank candidates.
    """
    family = getattr(index, "family", "flat")
    est = SearchStats()
    if family == "flat":
        est.distance_computations = n
    elif family == "table":
        nlist = getattr(index, "nlist", None)
        nprobe = getattr(index, "nprobe", None)
        if nlist and nprobe:
            cells = min(nprobe, nlist)
            est.distance_computations = nlist + (n / nlist) * cells
            est.nodes_visited = cells
            pages = getattr(index, "expected_pages_per_probe", None)
            if callable(pages):
                est.page_reads = pages() * cells
        elif hasattr(index, "num_tables"):  # LSH
            # Expected candidates: n * L / 2^K for sign hashes is usually
            # pessimistic; use measured mean bucket size when available.
            sizes = index.bucket_sizes() if index.is_built else []
            mean_bucket = float(np.mean(sizes)) if sizes else n / 16
            est.distance_computations = index.num_tables * mean_bucket
            est.nodes_visited = index.num_tables * index.num_probes
        elif hasattr(index, "nbits"):  # binary hashes: the exact re-rank
            est.distance_computations = getattr(index, "rerank", 100)
        else:  # PQ/SQ flat codes: one distance per code, then the re-rank
            est.distance_computations = n + (getattr(index, "rerank", 0) or 0)
    elif family == "tree":
        leaves = getattr(index, "max_leaves", None) or 32
        leaf_size = getattr(index, "leaf_size", 16)
        est.distance_computations = max(fetch, leaves * leaf_size)
        est.nodes_visited = leaves
    elif family == "graph":
        ef = max(fetch, getattr(index, "ef_search", None) or getattr(index, "beam_width", 16))
        degree = getattr(index, "m", None) or getattr(index, "max_degree", 16)
        est.distance_computations = ef * degree
        est.nodes_visited = ef
        if type(index).__name__ == "DiskAnnIndex":
            est.page_reads = max(fetch, getattr(index, "beam_width", 16))
    else:
        est.distance_computations = n
    return est
