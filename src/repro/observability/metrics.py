"""System-wide metrics: counters, gauges, sketch-backed histograms.

A tiny Prometheus-shaped metrics layer.  Instruments are created
lazily through a :class:`MetricsRegistry` and identified by name;
samples carry label sets (``counter.inc(kind="search")``).  Rendering
follows the Prometheus text exposition format closely enough that the
dump is scrapeable (``# HELP`` / ``# TYPE`` comments, ``_bucket`` /
``_sum`` / ``_count`` histogram series with cumulative ``le`` buckets).
A histogram is a labelled family of the one distribution type,
:class:`~repro.observability.sketch.QuantileSketch`.

The disabled path mirrors the tracing layer: :data:`NOOP_METRICS`
returns a shared :data:`NOOP_METRIC` whose ``inc``/``set``/``observe``
do nothing, so instrumented call sites never branch on an enabled flag.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterator

from .sketch import ZERO_BUCKET, QuantileSketch, bucket_upper_bound

__all__ = [
    "NOOP_METRIC",
    "NOOP_METRICS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NoopMetric",
    "NoopMetricsRegistry",
    "SeriesCache",
]

#: ``render()`` shows every 23rd sketch boundary: γ^23 ≈ 10^(1/5), five
#: ``le`` lines per decade instead of 115.
_RENDER_STRIDE = 23

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def labels_match(key: LabelKey, match: dict[str, Any]) -> bool:
    """True when ``match`` is a subset of the series' label set."""
    have = dict(key)
    return all(have.get(k) == str(v) for k, v in match.items())


def _escape_label_value(value: str) -> str:
    """Prometheus text-format label escaping: ``\\`` → ``\\\\``, ``"`` →
    ``\\"``, newline → ``\\n`` (in that order, so escapes don't compound)."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    """HELP-line escaping: only backslash and newline are special."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _render_labels(key: LabelKey, extra: tuple[tuple[str, str], ...] = ()) -> str:
    items = key + extra
    if not items:
        return ""
    body = ",".join(
        f'{name}="{_escape_label_value(value)}"' for name, value in items
    )
    return "{" + body + "}"


class _Metric:
    """Shared identity/bookkeeping for the three instrument kinds."""

    kind = "untyped"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help

    def render(self) -> list[str]:
        raise NotImplementedError

    def _header(self) -> list[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {_escape_help(self.help)}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        return lines


class _ValueSeries:
    """One bound series of a counter or gauge: the label key is built
    once, an update is one dict write."""

    __slots__ = ("_name", "_values", "_key")

    def __init__(self, metric: "_ValueMetric", key: LabelKey):
        self._name = metric.name
        self._values = metric._values
        self._key = key

    def value(self) -> float:
        return self._values.get(self._key, 0.0)


class _CounterSeries(_ValueSeries):
    __slots__ = ()

    def inc(self, value: float = 1.0) -> None:
        if value < 0:
            raise ValueError(f"counter {self._name} cannot decrease (got {value})")
        self._values[self._key] = self._values.get(self._key, 0.0) + value


class _GaugeSeries(_ValueSeries):
    __slots__ = ()

    def inc(self, value: float = 1.0) -> None:
        self._values[self._key] = self._values.get(self._key, 0.0) + value

    def dec(self, value: float = 1.0) -> None:
        self.inc(-value)

    def set(self, value: float) -> None:
        self._values[self._key] = float(value)


class _ValueMetric(_Metric):
    """One float per label set; ``inc(**labels)`` is the cold-path spelling
    of ``labels(**labels).inc()`` — hold the bound series where updates
    are frequent."""

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._values: dict[LabelKey, float] = {}

    def labels(self, **labels: Any) -> _ValueSeries:
        """The series of one label set, bound (nothing is recorded yet)."""
        return self._series(self, _label_key(labels))

    def inc(self, value: float = 1.0, **labels: Any) -> None:
        self.labels(**labels).inc(value)

    def value(self, **labels: Any) -> float:
        return self.labels(**labels).value()

    def samples(self) -> Iterator[tuple[LabelKey, float]]:
        yield from sorted(self._values.items())

    def render(self) -> list[str]:
        lines = self._header()
        for key, value in self.samples():
            lines.append(f"{self.name}{_render_labels(key)} {value:g}")
        return lines


class Counter(_ValueMetric):
    """A monotonically increasing sum, per label set."""

    kind = "counter"
    _series = _CounterSeries

    def total(self) -> float:
        return sum(self._values.values())


class Gauge(_ValueMetric):
    """A value that can go up and down, per label set."""

    kind = "gauge"
    _series = _GaugeSeries

    def set(self, value: float, **labels: Any) -> None:
        self.labels(**labels).set(value)

    def dec(self, value: float = 1.0, **labels: Any) -> None:
        self.labels(**labels).dec(value)


class _HistogramSeries:
    """One bound series of a :class:`Histogram`; its sketch joins the
    family on the first observation."""

    __slots__ = ("_histogram", "_key", "_sketch")

    def __init__(self, histogram: "Histogram", key: LabelKey):
        self._histogram = histogram
        self._key = key
        self._sketch = histogram._sketches.get(key)

    def observe(self, value: float, exemplar: Any = None) -> None:
        if self._sketch is None:
            self._sketch = self._histogram._sketches.setdefault(
                self._key, QuantileSketch()
            )
        bucket = self._sketch.observe(value)
        if exemplar is not None:
            self._histogram._exemplars[(self._key, bucket)] = (exemplar, value)


class Histogram(_Metric):
    """A labelled family of :class:`QuantileSketch`: one per label set.

    Counts, sums and quantiles are the sketch's own (relative error
    ``ALPHA``, merge and window delta exact).  :meth:`render` emits
    cumulative ``le`` lines at sketch bucket boundaries, every
    ``_RENDER_STRIDE``-th one, so each rendered count is exact.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._sketches: dict[LabelKey, QuantileSketch] = {}
        # Latest exemplar per (label set, sketch bucket): (exemplar, value).
        self._exemplars: dict[tuple[LabelKey, int], tuple[Any, float]] = {}

    def labels(self, **labels: Any) -> "_HistogramSeries":
        """The series of one label set, bound (nothing is recorded yet)."""
        return _HistogramSeries(self, _label_key(labels))

    def observe(self, value: float, exemplar: Any = None, **labels: Any) -> None:
        """Record one observation (cold-path spelling of
        ``labels(**labels).observe(value, exemplar)``).

        ``exemplar`` (OpenMetrics-style) attaches an opaque reference —
        in practice a trace id — to the bucket the value lands in; the
        latest exemplar per bucket wins.  A p99 reading is then one
        :meth:`exemplar` call away from a representative journey.
        """
        self.labels(**labels).observe(value, exemplar)

    def merged(self, **match: Any) -> QuantileSketch:
        """One sketch over every series whose labels include ``match``."""
        out = QuantileSketch()
        for key, sketch in self._sketches.items():
            if labels_match(key, match):
                out.merge(sketch)
        return out

    def series(self) -> Iterator[tuple[LabelKey, QuantileSketch]]:
        yield from sorted(self._sketches.items())

    def _sketch(self, labels: dict[str, Any]) -> QuantileSketch:
        return self._sketches.get(_label_key(labels)) or QuantileSketch()

    def count(self, **labels: Any) -> int:
        return self._sketch(labels).count

    def sum(self, **labels: Any) -> float:
        return self._sketch(labels).sum

    def quantile(self, q: float, **labels: Any) -> float:
        """The sketch's estimate for one exact label set (NaN if empty)."""
        return self._sketch(labels).quantile(q)

    def exemplar(self, q: float, **labels: Any) -> tuple[Any, float] | None:
        """The ``(exemplar, value)`` witness nearest the q-th quantile.

        Starts at the bucket :meth:`quantile` reports, then walks upward
        (slower buckets first — for tail quantiles the interesting
        witness is the slow one) and finally downward until a recorded
        exemplar is found.  ``None`` if no observation carried one.
        """
        key = _label_key(labels)
        sketch = self._sketch(labels)
        target = sketch.bucket_at(q)
        if target is None:
            return None
        buckets = sorted(sketch.counts)
        at = buckets.index(target)
        for bucket in buckets[at:] + buckets[:at][::-1]:
            hit = self._exemplars.get((key, bucket))
            if hit is not None:
                return hit
        return None

    def render(self) -> list[str]:
        lines = self._header()
        for key, sketch in self.series():
            # Fold buckets up to the next rendered boundary; the zero
            # bucket keeps a line of its own (le="0").
            groups: dict[int, tuple[int, str]] = {}
            for bucket in sorted(sketch.counts):
                edge = bucket
                if bucket != ZERO_BUCKET:  # round up to a rendered boundary
                    edge = -(-bucket // _RENDER_STRIDE) * _RENDER_STRIDE
                count, suffix = groups.get(edge, (0, ""))
                hit = self._exemplars.get((key, bucket))
                if hit is not None:  # the slowest bucket's exemplar wins
                    ref = _escape_label_value(str(hit[0]))
                    suffix = f' # {{trace_id="{ref}"}} {hit[1]:g}'
                groups[edge] = (count + sketch.counts[bucket], suffix)
            cumulative = 0
            for edge, (count, suffix) in groups.items():
                cumulative += count
                le = (("le", repr(bucket_upper_bound(edge))),)
                lines.append(
                    f"{self.name}_bucket{_render_labels(key, le)} {cumulative}"
                    f"{suffix}"
                )
            lines.append(
                f'{self.name}_bucket{_render_labels(key, (("le", "+Inf"),))}'
                f" {sketch.count}"
            )
            lines.append(f"{self.name}_sum{_render_labels(key)} {sketch.sum:g}")
            lines.append(f"{self.name}_count{_render_labels(key)} {sketch.count}")
        return lines


class MetricsRegistry:
    """Named instruments, created on first use, rendered as one dump."""

    enabled = True

    def __init__(self):
        self._metrics: dict[str, _Metric] = {}

    def _get(self, cls, name: str, help: str) -> _Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(name, help)
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind},"
                f" not {cls.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._get(Histogram, name, help)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def get(self, name: str) -> _Metric | None:
        return self._metrics.get(name)

    def render_prometheus(self) -> str:
        """The whole registry in Prometheus text exposition format."""
        lines: list[str] = []
        for name in sorted(self._metrics):
            lines.extend(self._metrics[name].render())
        return "\n".join(lines) + ("\n" if lines else "")

    def to_dict(self) -> dict[str, Any]:
        """Machine-readable dump (tests, JSON artifacts)."""
        out: dict[str, Any] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                out[name] = {
                    "type": metric.kind,
                    "series": [
                        {
                            "labels": dict(key),
                            "count": sketch.count,
                            "sum": sketch.sum,
                        }
                        for key, sketch in metric.series()
                    ],
                }
            else:
                out[name] = {
                    "type": metric.kind,
                    "series": [
                        {"labels": dict(key), "value": value}
                        for key, value in metric.samples()
                    ],
                }
        return out


class SeriesCache(dict):
    """Bound series held where a request passes: ``cache[key]`` (a tuple)
    is ``bind(*key)`` — typically ``registry.counter(...).labels(...)`` —
    called on first use only, so the instrument is registered and the
    label key built once and a steady-state update resolves nothing."""

    def __init__(self, bind: Callable[..., Any]):
        super().__init__()
        self._bind = bind

    def __missing__(self, key: tuple) -> Any:
        series = self[key] = self._bind(*key)
        return series


class NoopMetric:
    """Disabled-path instrument and its own bound series: accepts any
    recording call and does nothing, answers every read with "empty"."""

    __slots__ = ()

    def labels(self, **labels: Any) -> "NoopMetric":
        return self

    def inc(self, value: float = 1.0, **labels: Any) -> None:
        pass

    def dec(self, value: float = 1.0, **labels: Any) -> None:
        pass

    def set(self, value: float, **labels: Any) -> None:
        pass

    def observe(self, value: float, exemplar: Any = None, **labels: Any) -> None:
        pass

    def value(self, **labels: Any) -> float:
        return 0.0

    def total(self) -> float:
        return 0.0

    def samples(self) -> tuple:
        return ()

    def count(self, **labels: Any) -> int:
        return 0

    def sum(self, **labels: Any) -> float:
        return 0.0

    def quantile(self, q: float, **labels: Any) -> float:
        return math.nan

    def exemplar(self, q: float, **labels: Any) -> None:
        return None

    def merged(self, **match: Any) -> QuantileSketch:
        return QuantileSketch()

    def series(self) -> tuple:
        return ()

    def render(self) -> list[str]:
        return []


class NoopMetricsRegistry:
    """Disabled-path registry: every instrument is :data:`NOOP_METRIC`."""

    enabled = False

    def counter(self, name: str, help: str = "") -> NoopMetric:
        return NOOP_METRIC

    def gauge(self, name: str, help: str = "") -> NoopMetric:
        return NOOP_METRIC

    def histogram(self, name: str, help: str = "") -> NoopMetric:
        return NOOP_METRIC

    def names(self) -> list[str]:
        return []

    def get(self, name: str) -> None:
        return None

    def render_prometheus(self) -> str:
        return ""

    def to_dict(self) -> dict[str, Any]:
        return {}


NOOP_METRIC = NoopMetric()
NOOP_METRICS = NoopMetricsRegistry()
