"""The one latency distribution: a log-bucketed counts sketch.

:class:`QuantileSketch` is a DDSketch-style histogram (Masson, Rim & Lee,
VLDB 2019): bucket ``i`` covers ``(γ^(i-1), γ^i]`` with
``γ = (1 + α) / (1 - α)``, exact zeros have a bucket of their own, and a
bucket is answered by the one value within relative distance ``α`` of
every point in it.  Every distribution in the observability layer — each
label set of a :class:`~repro.observability.metrics.Histogram`, the
serving tier's per-tenant latency and queue wait, the cluster's per-shard
latency, every time-series window — is this type.

Contract (the tests pin each line):

* ``quantile(q)`` is within relative error ``ALPHA`` of the order
  statistic at nearest rank ``ceil(q * count)``, for every ``q``, inside
  ``[min, max]`` and monotone in ``q``;
* ``count``, ``sum``, ``min`` and ``max`` are exact;
* ``merge`` adds counts, ``snapshot`` copies them and ``delta``
  subtracts them, so a merge equals the sketch of the concatenation and a
  window delta equals the sketch of the window, bucket for bucket (a
  delta's ``min``/``max`` are the bounds of its outermost buckets).

Input is non-negative and finite (latencies, waits, ratios, sizes);
anything else raises.  Memory is one integer per occupied bucket: about
115 buckets per decade of range, a few hundred for a latency stream.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = [
    "ALPHA", "DEFAULT_QUANTILES", "ZERO_BUCKET", "QuantileSketch",
    "bucket_upper_bound",
]

#: Relative accuracy of every quantile estimate.
ALPHA = 0.01

#: The quantiles a report shows unless the reader asks for others.
DEFAULT_QUANTILES = (0.5, 0.9, 0.95, 0.99)

_LOG_GAMMA = math.log((1.0 + ALPHA) / (1.0 - ALPHA))
_INV_LOG_GAMMA = 1.0 / _LOG_GAMMA
#: Bucket of exact zeros: one below the index of the smallest float.
ZERO_BUCKET = math.ceil(math.log(5e-324) * _INV_LOG_GAMMA) - 1


def bucket_upper_bound(index: int) -> float:
    """Inclusive upper bound of bucket ``index`` (0.0 for the zero bucket)."""
    return 0.0 if index <= ZERO_BUCKET else math.exp(index * _LOG_GAMMA)


class QuantileSketch:
    """Mergeable quantiles with relative error ``ALPHA`` (module docstring)."""

    __slots__ = ("counts", "count", "sum", "min", "max")

    def __init__(self):
        self.counts: dict[int, int] = {}  # bucket index -> observations
        self.count = 0
        self.sum = 0.0
        self.min = math.inf  # +inf / -inf while empty
        self.max = -math.inf

    def observe(self, value: float) -> int:
        """Record one value; returns the index of the bucket it landed in."""
        if not 0.0 <= value < math.inf:  # NaN fails both comparisons
            raise ValueError(f"sketch values must be finite and >= 0, got {value}")
        index = (
            math.ceil(math.log(value) * _INV_LOG_GAMMA) if value else ZERO_BUCKET
        )
        self.counts[index] = self.counts.get(index, 0) + 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        return index

    # --------------------------------------------------------------- queries

    def bucket_at(self, q: float) -> int | None:
        """Index of the bucket holding the q-th quantile (None if empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        rank = q * self.count
        seen = 0
        for index in sorted(self.counts):
            seen += self.counts[index]
            if seen >= rank:
                return index
        return None

    def quantile(self, q: float) -> float:
        """Estimate the q-th quantile of everything observed (NaN if empty)."""
        index = self.bucket_at(q)
        if index is None:
            return math.nan
        if q == 0.0:
            return self.min
        if q == 1.0:
            return self.max
        estimate = bucket_upper_bound(index) * (1.0 - ALPHA)
        return min(max(estimate, self.min), self.max)

    def quantiles(self, qs: Sequence[float] = DEFAULT_QUANTILES) -> dict[str, float]:
        """``{"p50": ..., "p99": ...}`` for the requested quantiles."""
        return {f"p{q * 100:g}": self.quantile(q) for q in qs}

    # ------------------------------------------------- merge, snapshot, delta

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold ``other`` into this sketch (``other`` is left untouched)."""
        counts = self.counts
        for index, n in other.counts.items():
            counts[index] = counts.get(index, 0) + n
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return self

    def snapshot(self) -> "QuantileSketch":
        """An independent copy, for a later :meth:`delta`; a pure read."""
        return QuantileSketch().merge(self)

    def delta(self, prev: "QuantileSketch") -> "QuantileSketch":
        """The sketch of what was observed since ``prev`` was snapshotted."""
        if any(n > self.counts.get(index, 0) for index, n in prev.counts.items()):
            raise ValueError("snapshot is not an earlier state of this sketch")
        out = QuantileSketch()
        for index, n in self.counts.items():
            n -= prev.counts.get(index, 0)
            if n:
                out.counts[index] = n
        out.count = self.count - prev.count
        if out.count:
            out.sum = self.sum - prev.sum
            out.min = max(self.min, bucket_upper_bound(min(out.counts) - 1))
            out.max = min(self.max, bucket_upper_bound(max(out.counts)))
        return out

    # ----------------------------------------------------------------- views

    def to_dict(self, qs: Sequence[float] = DEFAULT_QUANTILES) -> dict:
        return {
            "count": self.count,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "quantiles": self.quantiles(qs),
        }

    def __repr__(self) -> str:
        qs = ", ".join(f"{k}={v:g}" for k, v in self.quantiles().items())
        return f"QuantileSketch(n={self.count}, {qs})"
