"""Time-series telemetry: fixed-width windows over the metrics registry.

Every instrument in :class:`~repro.observability.metrics.MetricsRegistry`
is *instantaneous* — a counter is its lifetime total, a sketch is its
lifetime distribution.  Longitudinal questions ("did p99 inflate this
second?", "is the cache hit ratio collapsing?") need **windows**:
per-interval deltas against a remembered previous scrape.

:class:`TimeSeriesStore` produces them on the simulated clock:

* **counters** (and histogram ``_count``/``_sum`` series) are scraped as
  per-window deltas per label set;
* **gauges** are sampled at the window boundary;
* registered :class:`~repro.observability.sketch.QuantileSketch`\\ es are
  windowed via :meth:`~repro.observability.sketch.QuantileSketch.delta`
  against the previous boundary's snapshot — a pure read, so the live
  sketches are never perturbed, and exact: the window's sketch is the
  sketch of the window's observations, bucket for bucket.

Windows are fixed-width, kept in a bounded ring (``retention``), and
**mergeable**: :meth:`TimeWindow.merge` folds k consecutive windows into
one wide window (counter deltas add, gauges take the latest sample,
sketch counts add, so the merge equals the sketch over the whole span) —
the anomaly layer's baselines are exactly such merges.

Everything is driven by a ``now`` the caller passes in (the front door's
event loop); this module never reads a wall clock, so window contents
are bit-for-bit reproducible.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterable, Sequence

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    LabelKey,
    MetricsRegistry,
    _label_key,
    labels_match,
)
from .sketch import QuantileSketch

__all__ = ["TimeSeriesStore", "TimeWindow"]

Series = dict[str, dict[LabelKey, float]]


class TimeWindow:
    """One fixed-width telemetry window: deltas, samples, distributions."""

    __slots__ = ("start", "end", "counters", "gauges", "sketches")

    def __init__(
        self,
        start: float,
        end: float,
        counters: Series,
        gauges: Series,
        sketches: dict[str, QuantileSketch],
    ):
        self.start = start
        self.end = end
        self.counters = counters
        self.gauges = gauges
        self.sketches = sketches

    @property
    def width_seconds(self) -> float:
        return self.end - self.start

    # ---------------------------------------------------------------- queries

    def counter_delta(self, name: str, **labels: Any) -> float:
        """This window's delta for one exact label set (0.0 if absent)."""
        return self.counters.get(name, {}).get(_label_key(labels), 0.0)

    def counter_total(self, name: str, **match: Any) -> float:
        """Delta summed over every series whose labels include ``match``."""
        series = self.counters.get(name)
        if not series:
            return 0.0
        return sum(
            value for key, value in series.items() if labels_match(key, match)
        )

    def gauge_value(self, name: str, **labels: Any) -> float:
        return self.gauges.get(name, {}).get(_label_key(labels), 0.0)

    def sketch(self, name: str) -> QuantileSketch | None:
        """The window's distribution for a tracked sketch (None if absent)."""
        return self.sketches.get(name)

    def label_values(self, name: str, label: str) -> list[str]:
        """Distinct values of ``label`` across one counter's series."""
        series = self.counters.get(name)
        if not series:
            return []
        values = {dict(key).get(label) for key in series}
        return sorted(v for v in values if v is not None)

    def ratio(self, numerator: str, denominator: str, **match: Any) -> float:
        """``num / (den)`` over this window's deltas; NaN when den == 0."""
        den = self.counter_total(denominator, **match)
        if den == 0.0:
            return float("nan")
        return self.counter_total(numerator, **match) / den

    # ------------------------------------------------------------------ merge

    @classmethod
    def merge(cls, windows: Sequence["TimeWindow"]) -> "TimeWindow":
        """Fold consecutive windows into one wide window.

        Counter deltas add, gauges take the sample from the latest
        window carrying the series, sketch counts add (losslessly).
        """
        if not windows:
            raise ValueError("cannot merge zero windows")
        ordered = sorted(windows, key=lambda w: w.end)
        counters: Series = {}
        gauges: Series = {}
        sketches: dict[str, QuantileSketch] = {}
        for window in ordered:
            for name, series in window.counters.items():
                out = counters.setdefault(name, {})
                for key, value in series.items():
                    out[key] = out.get(key, 0.0) + value
            for name, series in window.gauges.items():
                gauges.setdefault(name, {}).update(series)
            for name, sketch in window.sketches.items():
                sketches.setdefault(name, QuantileSketch()).merge(sketch)
        return cls(ordered[0].start, ordered[-1].end, counters, gauges, sketches)

    # ------------------------------------------------------------------ views

    def to_dict(self) -> dict[str, Any]:
        return {
            "start": self.start,
            "end": self.end,
            "counters": {
                name: [
                    {"labels": dict(key), "delta": value}
                    for key, value in sorted(series.items())
                ]
                for name, series in sorted(self.counters.items())
            },
            "gauges": {
                name: [
                    {"labels": dict(key), "value": value}
                    for key, value in sorted(series.items())
                ]
                for name, series in sorted(self.gauges.items())
            },
            "sketches": {
                name: sketch.to_dict()
                for name, sketch in sorted(self.sketches.items())
            },
        }

    def __repr__(self) -> str:
        return (
            f"TimeWindow([{self.start:g}, {self.end:g}],"
            f" {len(self.counters)} counters, {len(self.sketches)} sketches)"
        )


class TimeSeriesStore:
    """Scrapes a registry (and registered sketches) into ring-kept windows.

    Parameters
    ----------
    metrics:
        The live registry to scrape.  Counters and histogram
        count/sum series become per-window deltas; gauges are sampled.
    width_seconds:
        Window width on the simulated clock.
    retention:
        Ring size — at most this many closed windows are kept.
    start_seconds:
        Simulated time the first window opens.
    """

    def __init__(
        self,
        metrics: MetricsRegistry,
        width_seconds: float = 1.0,
        retention: int = 120,
        start_seconds: float = 0.0,
    ):
        if width_seconds <= 0:
            raise ValueError("width_seconds must be positive")
        if retention <= 0:
            raise ValueError("retention must be positive")
        self.bind(metrics)
        self.width_seconds = width_seconds
        self.retention = retention
        self.windows: deque[TimeWindow] = deque(maxlen=retention)
        self._window_start = start_seconds
        self._sketches: dict[str, QuantileSketch] = {}
        self._last_snapshots: dict[str, QuantileSketch] = {}

    def bind(self, metrics: MetricsRegistry) -> None:
        """Scrape ``metrics`` from here on; the next window's counter
        deltas are measured from zero, as for a registry just created."""
        self.metrics = metrics
        self._last_counters: Series = {}

    def track_sketch(self, name: str, sketch: QuantileSketch) -> None:
        """Register a live sketch for per-window delta scraping."""
        self._sketches[name] = sketch
        self._last_snapshots[name] = sketch.snapshot()

    # ---------------------------------------------------------------- scraping

    def _scrape_counters(self) -> Series:
        current: Series = {}
        for name in self.metrics.names():
            metric = self.metrics.get(name)
            if isinstance(metric, Counter):
                current[name] = {key: value for key, value in metric.samples()}
            elif isinstance(metric, Histogram):
                counts: dict[LabelKey, float] = {}
                sums: dict[LabelKey, float] = {}
                for key, sketch in metric.series():
                    counts[key] = float(sketch.count)
                    sums[key] = sketch.sum
                current[f"{name}_count"] = counts
                current[f"{name}_sum"] = sums
        return current

    def _scrape_gauges(self) -> Series:
        gauges: Series = {}
        for name in self.metrics.names():
            metric = self.metrics.get(name)
            if isinstance(metric, Gauge):
                gauges[name] = {key: value for key, value in metric.samples()}
        return gauges

    def scrape(self, now: float) -> TimeWindow:
        """Close the open window at ``now`` and start the next one."""
        current = self._scrape_counters()
        deltas: Series = {}
        for name, series in current.items():
            previous = self._last_counters.get(name, {})
            out = {
                key: value - previous.get(key, 0.0)
                for key, value in series.items()
            }
            if out:
                deltas[name] = out
        sketches: dict[str, QuantileSketch] = {}
        for name, sketch in self._sketches.items():
            window_sketch = sketch.delta(self._last_snapshots[name])
            self._last_snapshots[name] = sketch.snapshot()
            if window_sketch.count:
                sketches[name] = window_sketch
        window = TimeWindow(
            self._window_start, now, deltas, self._scrape_gauges(), sketches
        )
        self._last_counters = current
        self._window_start = now
        self.windows.append(window)
        return window

    def advance(self, now: float) -> list[TimeWindow]:
        """Close every whole window boundary at or before ``now``.

        The event loop calls this with each event's simulated time; any
        number of fixed-width windows may close (idle periods produce
        empty windows, which is itself signal).  Returns the windows
        closed by this call, oldest first.
        """
        closed: list[TimeWindow] = []
        while now >= self._window_start + self.width_seconds:
            closed.append(self.scrape(self._window_start + self.width_seconds))
        return closed

    # ----------------------------------------------------------------- views

    def last(self, n: int) -> list[TimeWindow]:
        """The most recent ``n`` closed windows, oldest first."""
        items = list(self.windows)
        return items[-n:] if n < len(items) else items

    def merged(self, n: int) -> TimeWindow:
        """One wide window over the last ``n`` closed windows."""
        return TimeWindow.merge(self.last(n))

    def series(
        self, name: str, **match: Any
    ) -> list[tuple[float, float]]:
        """``(window end, delta)`` points for one counter across the ring."""
        return [
            (window.end, window.counter_total(name, **match))
            for window in self.windows
        ]

    def __len__(self) -> int:
        return len(self.windows)

    def __iter__(self) -> Iterable[TimeWindow]:
        return iter(self.windows)
