"""Online recall auditing: measure result *quality* in production.

Latency observability (PR 3) cannot see the dominant VDBMS failure
class: an index that silently drifts to recall 0.4 after deletes, a bad
rebuild, or a mistuned probe count looks perfectly healthy in traces
and metrics.  The :class:`RecallAuditor` closes that gap the way
production systems do — by sampling a small seeded fraction of live
queries and re-executing them **exactly** (a flat scan over the same
liveness/predicate mask the query saw), then comparing the served top-k
against the exact top-k.

Cost isolation is the design constraint: the audit scan must never
pollute the query path's own accounting.  The auditor therefore

* runs *after* the query's ``SearchStats`` (including
  ``elapsed_seconds``) is finalized and after ``record_query`` has
  emitted the ordinary metrics;
* never touches the query's ``SearchStats`` object;
* charges all of its work to a dedicated ``audit_*`` metric namespace
  (``vdbms_audit_queries_total``, ``vdbms_audit_seconds_total``,
  ``vdbms_audit_distance_computations_total``, ``vdbms_audit_recall``).

Sampling is deterministic: one RNG draw per *considered* query,
regardless of whether the query is sampled, so the audited subset
depends only on ``(seed, query order)`` — replaying the same workload
audits the same queries.

Recall@k here is the standard ANN-benchmarks overlap measure
(|served ∩ exact| / |exact|), matching ``repro.bench.metrics.recall_at_k``
so online audited recall and offline bench recall are directly
comparable (E20 asserts they agree within ±0.05 on a degraded index).
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Sequence

import numpy as np

__all__ = ["AuditRecord", "RecallAuditor"]


class AuditRecord:
    """One audited query: what was served vs. what was exact."""

    __slots__ = ("recall", "k", "served", "exact", "strategy", "index")

    def __init__(self, recall, k, served, exact, strategy, index):
        self.recall = recall
        self.k = k
        self.served = served
        self.exact = exact
        self.strategy = strategy
        self.index = index

    def to_dict(self) -> dict[str, Any]:
        return {
            "recall": self.recall,
            "k": self.k,
            "served": list(self.served),
            "exact": list(self.exact),
            "strategy": self.strategy,
            "index": self.index,
        }

    def __repr__(self) -> str:
        return (
            f"AuditRecord(recall={self.recall:.3f}, k={self.k},"
            f" strategy={self.strategy!r})"
        )


class RecallAuditor:
    """Samples live queries and audits their recall against a flat scan.

    Parameters
    ----------
    fraction:
        Probability that any considered query is audited (0 disables
        sampling but keeps the auditor queryable).
    k:
        Audit depth: recall@k is computed over the first ``k`` served
        hits against the exact top-k (capped at the query's own k and
        at the number of eligible rows).
    seed:
        Seed for the sampling RNG — fixed seed + fixed query order =
        fixed audited subset.
    window:
        How many recent audits feed ``window_mean_recall()`` and the
        SLO signal history.
    """

    def __init__(
        self,
        fraction: float,
        k: int = 10,
        seed: int = 0,
        window: int = 256,
        metrics: Any = None,
        tracer: Any = None,
        slo: Any = None,
        collection_label: str = "default",
    ):
        from .metrics import NOOP_METRICS
        from .tracing import NOOP_TRACER

        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"audit fraction must be in [0, 1], got {fraction}")
        if k <= 0:
            raise ValueError("audit k must be positive")
        self.fraction = float(fraction)
        self.k = int(k)
        self.seed = int(seed)
        self.metrics = metrics if metrics is not None else NOOP_METRICS
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self.slo = slo
        self.collection_label = collection_label
        self._rng = np.random.default_rng(self.seed)
        self.considered = 0
        self.audited = 0
        self.last_recall: float | None = None
        self.recent: deque[AuditRecord] = deque(maxlen=int(window))

    # ----------------------------------------------------------- entry point

    def consider(
        self,
        query: np.ndarray,
        k: int,
        hits: Sequence[Any],
        *,
        collection: Any,
        score: Any,
        predicate: Any = None,
        strategy: str = "",
        index: str | None = None,
    ) -> AuditRecord | None:
        """Maybe audit one served query; returns the record if sampled.

        Exactly one RNG draw happens per call so sampling is a pure
        function of (seed, call order).  Returns ``None`` when the
        query is not sampled or has nothing to audit against.
        """
        self.considered += 1
        draw = self._rng.random()
        if self.fraction <= 0.0 or draw >= self.fraction:
            return None
        return self.audit(
            query, k, hits,
            collection=collection, score=score, predicate=predicate,
            strategy=strategy, index=index,
        )

    # -------------------------------------------------------------- the scan

    def audit(
        self,
        query: np.ndarray,
        k: int,
        hits: Sequence[Any],
        *,
        collection: Any,
        score: Any,
        predicate: Any = None,
        strategy: str = "",
        index: str | None = None,
    ) -> AuditRecord | None:
        """Re-execute one query exactly and record recall@k.

        The exact scan honors the same liveness + predicate mask the
        served query saw, so recall measures the *index/strategy*
        approximation, not filter semantics.
        """
        # Local import: the kernels module sits under repro.index, and
        # importing it at module scope would cycle through repro.core.
        from ..index._kernels import topk_indices

        started = time.perf_counter()
        mask = collection.predicate_mask(predicate)
        eligible = np.flatnonzero(mask)
        depth = min(self.k, int(k), eligible.size)
        if depth == 0:
            return None
        distances = score.pairwise(
            np.asarray(query)[None, :], collection.vectors[eligible]
        )[0]
        order = topk_indices(distances, depth)
        exact_ids = frozenset(int(eligible[i]) for i in order)
        served_ids = frozenset(int(h.id) for h in hits[:depth])
        recall = len(served_ids & exact_ids) / depth
        elapsed = time.perf_counter() - started

        labels = {
            "collection": self.collection_label,
            "strategy": strategy or "unknown",
            "index": index or "none",
        }
        self.metrics.counter(
            "vdbms_audit_queries_total",
            "Live queries re-executed exactly by the recall auditor.",
        ).inc(**labels)
        self.metrics.counter(
            "vdbms_audit_distance_computations_total",
            "Exact-scan distance computations charged to auditing.",
        ).inc(int(eligible.size), **labels)
        self.metrics.counter(
            "vdbms_audit_seconds_total",
            "Wall time spent in audit scans (never charged to queries).",
        ).inc(elapsed, **labels)
        self.metrics.histogram(
            "vdbms_audit_recall",
            "Audited recall@k of served results vs. exact flat scan.",
        ).observe(recall, **labels)

        span = self.tracer.start_span(
            "audit", kind="recall", k=depth, **labels,
        )
        span.event(
            "audited", recall=recall, served=len(served_ids),
            exact=len(exact_ids), eligible=int(eligible.size),
        )
        span.finish()

        record = AuditRecord(
            recall=recall, k=depth,
            served=tuple(sorted(served_ids)), exact=tuple(sorted(exact_ids)),
            strategy=strategy or "unknown", index=index,
        )
        self.audited += 1
        self.last_recall = recall
        self.recent.append(record)
        if self.slo is not None:
            self.slo.observe("recall", recall)
        return record

    # --------------------------------------------------------------- summary

    def window_mean_recall(self) -> float:
        if not self.recent:
            return float("nan")
        return sum(r.recall for r in self.recent) / len(self.recent)

    def summary(self) -> dict[str, Any]:
        return {
            "fraction": self.fraction,
            "k": self.k,
            "seed": self.seed,
            "considered": self.considered,
            "audited": self.audited,
            "last_recall": self.last_recall,
            "window_mean_recall": self.window_mean_recall(),
            "window": len(self.recent),
        }

    def __repr__(self) -> str:
        return (
            f"RecallAuditor(fraction={self.fraction}, k={self.k},"
            f" audited={self.audited}/{self.considered})"
        )
