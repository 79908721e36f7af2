"""Linear cost model for hybrid plan selection (§2.3 "Cost Based").

AnalyticDB-V [84] and Milvus [6, 79] "devise costs for several vector
operators in order to use a linear cost model that aggregates the I/O
and computation cost of each plan operator".  We do the same: each plan
is decomposed into operator work estimates (distance computations,
predicate evaluations, page reads), each multiplied by a unit weight.

Unit weights can be set analytically or *calibrated* by timing the
primitive operations on the actual data (:meth:`CostModel.calibrate`),
which is how the reproduction keeps the model honest across machines.

The per-strategy formulas are deliberately transparent; bench E9 checks
that ranking plans by these estimates tracks the true best plan across
the selectivity sweep, and §2.6(3) ("cost estimation is difficult")
shows up as the documented inflation heuristics for blocked scans.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np


@dataclass
class CostWeights:
    """Unit costs (seconds per operation, or any consistent unit)."""

    distance: float = 1.0
    predicate: float = 0.02
    page_read: float = 50.0
    lookup: float = 0.05  # one quantized-code table lookup


@dataclass
class WorkEstimate:
    """Predicted operator work for one plan execution."""

    distance_computations: float = 0.0
    predicate_evaluations: float = 0.0
    page_reads: float = 0.0
    lookups: float = 0.0

    def total(self, weights: CostWeights) -> float:
        return (
            weights.distance * self.distance_computations
            + weights.predicate * self.predicate_evaluations
            + weights.page_read * self.page_reads
            + weights.lookup * self.lookups
        )


def _index_scan_work(index, n: int, k: int, fetch: int) -> WorkEstimate:
    """Base (unpredicated) scan work for an index, by structure.

    ``fetch`` is the result-set size actually requested (k, or a*k for
    post-filtering) — it inflates beam widths / rerank candidates.
    """
    family = getattr(index, "family", "flat")
    est = WorkEstimate()
    if family == "flat":
        est.distance_computations = n
    elif family == "table":
        nlist = getattr(index, "nlist", None)
        nprobe = getattr(index, "nprobe", None)
        if nlist and nprobe:
            est.distance_computations = nlist + (n / nlist) * min(nprobe, nlist)
            pages = getattr(index, "expected_pages_per_probe", None)
            if callable(pages):
                est.page_reads = pages() * min(nprobe, nlist)
        elif hasattr(index, "num_tables"):  # LSH
            # Expected candidates: n * L / 2^K for sign hashes is usually
            # pessimistic; use measured mean bucket size when available.
            sizes = index.bucket_sizes() if index.is_built else []
            mean_bucket = float(np.mean(sizes)) if sizes else n / 16
            est.distance_computations = index.num_tables * mean_bucket
        elif hasattr(index, "nbits"):  # binary-hash indexes
            est.lookups = n  # Hamming pass
            est.distance_computations = getattr(index, "rerank", 100)
        else:  # PQ/SQ flat codes
            est.lookups = n
            est.distance_computations = getattr(index, "rerank", 0) or 0
    elif family == "tree":
        leaves = (
            getattr(index, "max_leaves", None)
            or getattr(index, "search_k", None)
            or 32
        )
        leaf_size = getattr(index, "leaf_size", 16)
        est.distance_computations = max(fetch, leaves * leaf_size)
    elif family == "graph":
        ef = max(fetch, getattr(index, "ef_search", None) or getattr(index, "beam_width", 16))
        degree = getattr(index, "m", None) or getattr(index, "max_degree", 16)
        est.distance_computations = ef * degree
        if type(index).__name__ == "DiskAnnIndex":
            est.page_reads = max(fetch, getattr(index, "beam_width", 16))
    else:
        est.distance_computations = n
    return est


class CostModel:
    """Estimates and compares plan costs; optionally self-calibrating."""

    #: Inflation exponents for blocked traversal: searching a graph/tree
    #: index under a mask of selectivity s costs roughly base/(s^beta).
    #: Visit-first's predicate bias makes it cheaper than block-first at
    #: the same s (smaller beta); both are heuristics — §2.6(3) is open.
    BLOCK_FIRST_BETA = 0.5
    VISIT_FIRST_BETA = 0.3

    def __init__(self, weights: CostWeights | None = None):
        self.weights = weights or CostWeights()

    def calibrate(self, vectors: np.ndarray, score, sample: int = 2048,
                  page_read_seconds: float = 100e-6) -> "CostModel":
        """Measure the real per-distance cost on this data; anchor others.

        Predicate evaluations are charged at ~1/50 of a distance (one
        vectorized compare vs a d-dim kernel); page reads at the supplied
        device latency.
        """
        sample = min(sample, vectors.shape[0])
        if sample >= 2:
            block = vectors[:sample]
            start = time.perf_counter()
            score.distances(block[0], block)
            per_distance = (time.perf_counter() - start) / sample
        else:
            per_distance = 1e-7
        self.weights = CostWeights(
            distance=per_distance,
            predicate=per_distance / 50.0,
            page_read=page_read_seconds,
            lookup=per_distance / 10.0,
        )
        return self

    # ------------------------------------------------------------ estimators

    def estimate(
        self, plan, index, n: int, k: int, selectivity: float, tail_rows: int = 0
    ) -> float:
        """Total estimated cost of a plan (see planner for strategies).
        ``tail_rows`` were written since the plan's index was built: the
        executor scans the ones the predicate allows exactly, beside it."""
        s = min(max(selectivity, 1e-6), 1.0)
        strategy = plan.strategy
        est = WorkEstimate()
        if strategy == "brute_force":
            est.distance_computations = n
        elif strategy == "pre_filter":
            est.predicate_evaluations = n
            est.distance_computations = s * n
        elif strategy == "index_scan":
            est = _index_scan_work(index, n, k, fetch=k)
        elif strategy == "block_first":
            est = _index_scan_work(index, n, k, fetch=k)
            est.predicate_evaluations += n  # online bitmask construction
            family = getattr(index, "family", "flat")
            if family in ("graph", "tree"):
                inflation = (1.0 / s) ** self.BLOCK_FIRST_BETA
                est.distance_computations *= inflation
                est.page_reads *= inflation
        elif strategy == "post_filter":
            oversample = getattr(plan, "oversample", None) or 1.0 / s
            fetch = min(n, int(np.ceil(oversample * k)))
            est = _index_scan_work(index, n, k, fetch=fetch)
            est.predicate_evaluations += fetch
        elif strategy == "visit_first":
            est = _index_scan_work(index, n, k, fetch=k)
            inflation = (1.0 / s) ** self.VISIT_FIRST_BETA
            est.distance_computations *= inflation
            est.predicate_evaluations += est.distance_computations
        elif strategy == "partition":
            # Offline blocking: scan one partition of expected size s*n.
            est = _index_scan_work(index, max(1, int(s * n)), k, fetch=k) if index \
                else WorkEstimate(distance_computations=s * n)
        else:
            raise ValueError(f"unknown strategy {strategy!r}")
        est.distance_computations += tail_rows * s
        return est.total(self.weights)

    def measured_cost(self, stats) -> float:
        """Price an executed query's actual counters (for validation)."""
        est = WorkEstimate(
            distance_computations=stats.distance_computations,
            predicate_evaluations=stats.predicate_evaluations,
            page_reads=stats.page_reads,
        )
        return est.total(self.weights)


class EmpiricalCostModel(CostModel):
    """A cost model whose unit weights are *fitted*, not assumed.

    Feed it (SearchStats, measured latency) samples from real plan
    executions; :meth:`fit` solves the non-negative least-squares
    problem  latency ~ w_dist*dists + w_pred*preds + w_page*pages
    (projected gradient keeps weights >= 0).  This addresses the §2.6(3)
    complaint that blocked-scan costs are hard to model analytically:
    measure instead.
    """

    def __init__(self):
        super().__init__()
        self._features: list[list[float]] = []
        self._targets: list[float] = []
        self.fitted = False
        self.residual_rms: float | None = None

    def observe(self, stats, latency_seconds: float) -> None:
        """Record one executed query."""
        self._features.append([
            float(stats.distance_computations),
            float(stats.predicate_evaluations),
            float(stats.page_reads),
        ])
        self._targets.append(float(latency_seconds))

    @property
    def num_observations(self) -> int:
        return len(self._targets)

    def fit(self, iterations: int = 500, learning_rate: float | None = None) -> "EmpiricalCostModel":
        if len(self._targets) < 3:
            raise ValueError("need at least 3 observations to fit")
        x = np.asarray(self._features)
        y = np.asarray(self._targets)
        # Column scaling for conditioning.
        scale = np.where(x.max(axis=0) > 0, x.max(axis=0), 1.0)
        xs = x / scale
        w = np.full(3, y.mean() / max(1e-12, xs.sum(axis=1).mean()))
        lr = learning_rate if learning_rate is not None else 1.0 / max(
            1e-12, (xs * xs).sum()
        )
        for _ in range(iterations):
            grad = xs.T @ (xs @ w - y)
            w = np.clip(w - lr * grad, 0.0, None)
        w = w / scale
        self.weights = CostWeights(
            distance=float(w[0]), predicate=float(w[1]), page_read=float(w[2]),
            lookup=float(w[0]) / 10.0,
        )
        pred = x @ w
        self.residual_rms = float(np.sqrt(np.mean((pred - y) ** 2)))
        self.fitted = True
        return self

    def predict_latency(self, stats) -> float:
        """Predicted latency for a query with these counters."""
        return self.measured_cost(stats)
