"""Post-filtering with a·k oversampling (§2.3, §2.6(3)).

Post-filtering runs an unrestricted index scan and applies the
predicate to the result set.  Its known hazard — the tutorial lists it
as an open problem — is returning fewer than k results: at selectivity
``s`` an unmodified top-k keeps only ~``s*k``.  The standard mitigation
retrieves ``a*k`` results before filtering.  "How to tune a remains
unclear" [79, 84], so we provide:

* :func:`postfilter_scan` — fixed ``a``.
* :func:`adaptive_postfilter_scan` — start from ``a = 1/s_hat`` (the
  expectation-matching choice) and double until k results survive or
  the whole collection has been ranked; reports the attempts so bench
  E8 can chart the retry cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.types import Hits, SearchStats
from ..hybrid.predicates import Predicate
from ..observability.tracing import NOOP_SPAN


def _admitted(hits: Hits, mask: np.ndarray, stats: SearchStats) -> Hits:
    """The fetched hits the predicate mask (by id) admits, charged one
    evaluation per hit and one rejection per refusal."""
    kept = hits.where(mask[hits.ids])
    stats.predicate_evaluations += len(hits)
    stats.predicate_rejections += len(hits) - len(kept)
    return kept


def postfilter_scan(
    index,
    collection,
    query: np.ndarray,
    k: int,
    predicate: Predicate | None,
    oversample: float = 1.0,
    stats: SearchStats | None = None,
    span=None,
    **params,
) -> Hits:
    """Unrestricted index scan of ceil(a*k), then filter.

    May return fewer than k hits — by design; that is the behavior the
    tutorial highlights (acceptable for e-commerce per Vearch [12, 54]).
    """
    stats = stats if stats is not None else SearchStats()
    span = span if span is not None else NOOP_SPAN
    fetch = int(np.ceil(max(1.0, oversample) * k))
    hits = index.search(query, fetch, stats=stats, span=span, **params)
    with span.child(
        "filter", fetched=len(hits), oversample=round(float(oversample), 4)
    ).attach_stats(stats) as filter_span:
        mask = collection.predicate_mask(predicate)
        kept = _admitted(hits, mask, stats)[:k]
        filter_span.set(kept=len(kept))
    return kept


@dataclass
class AdaptiveResult:
    hits: Hits
    attempts: int
    final_oversample: float


def adaptive_postfilter_scan(
    index,
    collection,
    query: np.ndarray,
    k: int,
    predicate: Predicate | None,
    selectivity_hint: float | None = None,
    max_attempts: int = 6,
    stats: SearchStats | None = None,
    span=None,
    **params,
) -> AdaptiveResult:
    """Retry with doubling a until k results survive the filter."""
    stats = stats if stats is not None else SearchStats()
    span = span if span is not None else NOOP_SPAN
    n = len(collection)
    mask = collection.predicate_mask(predicate)
    if selectivity_hint is None:
        selectivity_hint = max(float(mask.sum()) / max(1, n), 1e-6)
    oversample = max(1.0, 1.0 / selectivity_hint)
    attempts = 0
    hits = Hits.EMPTY
    while attempts < max_attempts:
        attempts += 1
        fetch = min(n, int(np.ceil(oversample * k)))
        with span.child(
            "attempt",
            attempt=attempts,
            oversample=round(float(oversample), 4),
            fetch=fetch,
        ).attach_stats(stats) as attempt_span:
            raw = index.search(query, fetch, stats=stats, span=attempt_span, **params)
            hits = _admitted(raw, mask, stats)
            attempt_span.set(kept=len(hits))
        if len(hits) >= k or fetch >= n:
            break
        oversample *= 2.0
    span.set(attempts=attempts, final_oversample=round(float(oversample), 4))
    return AdaptiveResult(hits[:k], attempts, oversample)
