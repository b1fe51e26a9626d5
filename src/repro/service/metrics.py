"""Thread-safe, dependency-free metrics registry of the serving layer.

The paper this repository reproduces is about *bounding response times*;
the serving tier that evaluates those bounds should itself publish its
response-time distribution.  This module is the substrate: monotonic
:class:`Counter` s, :class:`Gauge` s (set directly or computed by callback
at scrape time) and fixed-bucket :class:`Histogram` s with p50/p95/p99
estimation, collected in a :class:`MetricsRegistry` that renders both a
JSON document (for the harnesses and ``ServiceClient.metrics()``) and the
Prometheus text exposition format (``GET /metrics``), so the service is
scrapeable by standard tooling with zero new dependencies.

Design constraints, in the order they were traded against each other:

* **Hot-path cost.**  ``observe``/``inc`` sit on every request the HTTP
  transport and the facade serve, so a series update is one lock plus a
  couple of arithmetic operations.  Label resolution (kwargs -> series
  tuple) is a dictionary lookup; the common case of an unlabelled metric
  skips it entirely.
* **Fixed buckets, never samples.**  Histograms hold one count per bucket
  (plus sum/min/max), so memory is constant no matter how many requests
  pass through -- the property that makes a "millions of users" metric
  endpoint safe.  Percentiles are therefore *estimates*: linear
  interpolation inside the bucket containing the rank, exact at bucket
  boundaries, clamped to the observed min/max at the tails.  The
  estimation error is bounded by the containing bucket's width
  (``tests/test_metrics.py`` enforces this against exact percentiles).
* **Single source of truth.**  The facade's ``stats()`` document reads the
  same counter objects ``/metrics`` renders, so the two endpoints cannot
  drift apart -- the reconciliation the load harness and CI assert.

Label values are always rendered as strings; keep label cardinality small
and bounded (the HTTP layer maps unknown paths to one ``"other"`` label
for exactly this reason).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Callable, Mapping, Optional, Sequence, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LATENCY_BUCKETS",
    "BATCH_SIZE_BUCKETS",
    "OCCUPANCY_BUCKETS",
]

#: Default latency buckets in seconds: log-spaced from 0.5 ms to 30 s, the
#: span between a cache hit served over loopback and a budgeted exact solve.
LATENCY_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Batch-size buckets (requests per flush), powers of two.
BATCH_SIZE_BUCKETS: tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024,
)

#: Occupancy-ratio buckets (a fraction in [0, 1]), linear-ish in the
#: interesting low range.
OCCUPANCY_BUCKETS: tuple[float, ...] = (
    0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0,
)

_Number = Union[int, float]


def _series_key(
    label_names: tuple[str, ...], labels: Mapping[str, object]
) -> tuple[str, ...]:
    """Canonical series key: label values as strings, declared order."""
    if set(labels) != set(label_names):
        raise ValueError(
            f"expected labels {label_names}, got {tuple(sorted(labels))}"
        )
    return tuple(str(labels[name]) for name in label_names)


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: _Number) -> str:
    """Prometheus sample value: integers without a trailing ``.0``."""
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int) or (isinstance(value, float) and value.is_integer()):
        return str(int(value))
    return repr(float(value))


def _render_labels(
    label_names: Sequence[str], key: Sequence[str], extra: str = ""
) -> str:
    parts = [
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(label_names, key)
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class _Metric:
    """Shared base: name, help text, label plumbing, per-metric lock."""

    kind = "untyped"

    def __init__(
        self, name: str, help: str, label_names: Sequence[str] = ()
    ) -> None:  # noqa: A002 - mirrors the Prometheus field name
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._lock = threading.Lock()

    def _key(self, labels: Mapping[str, object]) -> tuple[str, ...]:
        if not self.label_names and not labels:
            return ()
        return _series_key(self.label_names, labels)


class Counter(_Metric):
    """Monotonically increasing counter, optionally labelled."""

    kind = "counter"

    def __init__(
        self, name: str, help: str, label_names: Sequence[str] = ()
    ) -> None:  # noqa: A002
        super().__init__(name, help, label_names)
        self._values: dict[tuple[str, ...], _Number] = {}

    def inc(self, amount: _Number = 1, **labels: object) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount}")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: object) -> _Number:
        """Current value of one series (``0`` if never incremented)."""
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0)

    def total(self) -> _Number:
        """Sum over every series (e.g. all statuses of one endpoint)."""
        with self._lock:
            return sum(self._values.values())

    def collect(self) -> list[tuple[tuple[str, ...], _Number]]:
        with self._lock:
            return sorted(self._values.items())


class Gauge(_Metric):
    """Point-in-time value: set/add directly, or computed at scrape time.

    A callback gauge (``callback=...``) is evaluated on every ``collect``
    -- the idiom for values that already live elsewhere (cache occupancy,
    queue depth, hit ratio) and must never be maintained twice.
    """

    kind = "gauge"

    def __init__(
        self,
        name: str,
        help: str,  # noqa: A002
        label_names: Sequence[str] = (),
        callback: Optional[Callable[[], _Number]] = None,
    ) -> None:
        super().__init__(name, help, label_names)
        if callback is not None and label_names:
            raise ValueError("callback gauges are unlabelled")
        self._callback = callback
        self._values: dict[tuple[str, ...], _Number] = {}

    def set(self, value: _Number, **labels: object) -> None:
        if self._callback is not None:
            raise ValueError(f"gauge {self.name} is callback-driven")
        key = self._key(labels)
        with self._lock:
            self._values[key] = value

    def add(self, amount: _Number, **labels: object) -> None:
        if self._callback is not None:
            raise ValueError(f"gauge {self.name} is callback-driven")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: object) -> _Number:
        if self._callback is not None:
            return self._callback()
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0)

    def collect(self) -> list[tuple[tuple[str, ...], _Number]]:
        if self._callback is not None:
            return [((), self._callback())]
        with self._lock:
            return sorted(self._values.items())


class _HistogramSeries:
    """Bucket counts + sum/min/max of one labelled series."""

    __slots__ = ("counts", "sum", "count", "min", "max")

    def __init__(self, bucket_count: int) -> None:
        self.counts = [0] * (bucket_count + 1)  # trailing +Inf bucket
        self.sum = 0.0
        self.count = 0
        self.min = float("inf")
        self.max = float("-inf")


class Histogram(_Metric):
    """Fixed-bucket histogram with percentile estimation.

    ``buckets`` are *upper* bounds, strictly increasing; an implicit
    ``+Inf`` bucket catches everything beyond the last bound.  A value
    ``v`` lands in the first bucket with ``v <= bound`` (Prometheus ``le``
    semantics).
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,  # noqa: A002
        buckets: Sequence[float] = LATENCY_BUCKETS,
        label_names: Sequence[str] = (),
    ) -> None:
        super().__init__(name, help, label_names)
        bounds = tuple(float(bound) for bound in buckets)
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must strictly increase: {bounds}")
        self.buckets = bounds
        self._series: dict[tuple[str, ...], _HistogramSeries] = {}

    def observe(self, value: _Number, **labels: object) -> None:
        value = float(value)
        index = bisect_left(self.buckets, value)
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(len(self.buckets))
            series.counts[index] += 1
            series.sum += value
            series.count += 1
            if value < series.min:
                series.min = value
            if value > series.max:
                series.max = value

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def _snapshot(self, key: tuple[str, ...]) -> Optional[_HistogramSeries]:
        with self._lock:
            series = self._series.get(key)
            if series is None:
                return None
            copy = _HistogramSeries(len(self.buckets))
            copy.counts = list(series.counts)
            copy.sum, copy.count = series.sum, series.count
            copy.min, copy.max = series.min, series.max
            return copy

    def _estimate(self, series: _HistogramSeries, quantile: float) -> float:
        """Rank-interpolated quantile from the bucket counts.

        The returned value always lies inside the bucket that contains the
        exact rank, so the estimation error is bounded by that bucket's
        width; the open-ended ``+Inf`` bucket is clamped to the observed
        maximum (and the first bucket's floor to the observed minimum).
        """
        rank = quantile * series.count
        cumulative = 0.0
        for index, count in enumerate(series.counts):
            if count == 0:
                continue
            previous = cumulative
            cumulative += count
            if cumulative >= rank:
                lower = self.buckets[index - 1] if index > 0 else 0.0
                upper = (
                    self.buckets[index]
                    if index < len(self.buckets)
                    else max(series.max, lower)
                )
                lower = max(lower, series.min if series.min <= upper else lower)
                upper = min(upper, series.max) if series.max >= lower else upper
                if upper <= lower:
                    return lower
                fraction = (rank - previous) / count
                return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
        return series.max if series.count else float("nan")

    def percentile(self, quantile: float, **labels: object) -> float:
        """Estimated ``quantile`` (in ``[0, 1]``) of one series.

        ``nan`` when the series has no observations.
        """
        if not 0.0 <= quantile <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {quantile}")
        series = self._snapshot(self._key(labels))
        if series is None or series.count == 0:
            return float("nan")
        return self._estimate(series, quantile)

    def count(self, **labels: object) -> int:
        series = self._snapshot(self._key(labels))
        return 0 if series is None else series.count

    def total_count(self) -> int:
        with self._lock:
            return sum(series.count for series in self._series.values())

    def collect(self) -> list[tuple[tuple[str, ...], _HistogramSeries]]:
        with self._lock:
            keys = sorted(self._series)
        return [(key, self._snapshot(key)) for key in keys]


class MetricsRegistry:
    """Create-or-get metric store with JSON and Prometheus rendering.

    Re-registering a name returns the existing metric (so independent
    components can share a registry without coordination) but raises if
    the kind or label names disagree -- a silent mismatch would corrupt
    both exposition formats.
    """

    def __init__(self, namespace: str = "") -> None:
        self.namespace = namespace
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    def _register(self, metric: _Metric) -> _Metric:
        with self._lock:
            existing = self._metrics.get(metric.name)
            if existing is None:
                self._metrics[metric.name] = metric
                return metric
            if (
                existing.kind != metric.kind
                or existing.label_names != metric.label_names
            ):
                raise ValueError(
                    f"metric {metric.name!r} already registered as "
                    f"{existing.kind}{existing.label_names}, cannot "
                    f"re-register as {metric.kind}{metric.label_names}"
                )
            return existing

    def counter(
        self, name: str, help: str, labels: Sequence[str] = ()
    ) -> Counter:  # noqa: A002
        metric = self._register(Counter(name, help, labels))
        assert isinstance(metric, Counter)
        return metric

    def gauge(
        self,
        name: str,
        help: str,  # noqa: A002
        labels: Sequence[str] = (),
        callback: Optional[Callable[[], _Number]] = None,
    ) -> Gauge:
        metric = self._register(Gauge(name, help, labels, callback=callback))
        assert isinstance(metric, Gauge)
        return metric

    def histogram(
        self,
        name: str,
        help: str,  # noqa: A002
        buckets: Sequence[float] = LATENCY_BUCKETS,
        labels: Sequence[str] = (),
    ) -> Histogram:
        metric = self._register(Histogram(name, help, buckets, labels))
        assert isinstance(metric, Histogram)
        return metric

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def _sorted_metrics(self) -> list[_Metric]:
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def render_json(self) -> dict:
        """JSON document: one entry per metric, percentiles precomputed."""
        counters: dict[str, dict] = {}
        gauges: dict[str, dict] = {}
        histograms: dict[str, dict] = {}
        for metric in self._sorted_metrics():
            if isinstance(metric, Counter):
                counters[metric.name] = {
                    "help": metric.help,
                    "series": [
                        {
                            "labels": dict(zip(metric.label_names, key)),
                            "value": value,
                        }
                        for key, value in metric.collect()
                    ],
                }
            elif isinstance(metric, Gauge):
                gauges[metric.name] = {
                    "help": metric.help,
                    "series": [
                        {
                            "labels": dict(zip(metric.label_names, key)),
                            "value": value,
                        }
                        for key, value in metric.collect()
                    ],
                }
            elif isinstance(metric, Histogram):
                histograms[metric.name] = {
                    "help": metric.help,
                    "buckets": list(metric.buckets),
                    "series": [
                        {
                            "labels": dict(zip(metric.label_names, key)),
                            "counts": list(series.counts),
                            "sum": series.sum,
                            "count": series.count,
                            "min": series.min if series.count else None,
                            "max": series.max if series.count else None,
                            "p50": metric._estimate(series, 0.50),
                            "p95": metric._estimate(series, 0.95),
                            "p99": metric._estimate(series, 0.99),
                        }
                        for key, series in metric.collect()
                        if series is not None
                    ],
                }
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def render_prometheus(self) -> str:
        """Prometheus/OpenMetrics text exposition (version 0.0.4)."""
        lines: list[str] = []
        for metric in self._sorted_metrics():
            help_text = metric.help.replace("\\", "\\\\").replace("\n", "\\n")
            lines.append(f"# HELP {metric.name} {help_text}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            if isinstance(metric, (Counter, Gauge)):
                for key, value in metric.collect():
                    labels = _render_labels(metric.label_names, key)
                    lines.append(f"{metric.name}{labels} {_format_value(value)}")
            elif isinstance(metric, Histogram):
                for key, series in metric.collect():
                    if series is None:  # pragma: no cover - defensive
                        continue
                    cumulative = 0
                    for bound, count in zip(metric.buckets, series.counts):
                        cumulative += count
                        labels = _render_labels(
                            metric.label_names,
                            key,
                            extra=f'le="{_format_value(bound)}"',
                        )
                        lines.append(
                            f"{metric.name}_bucket{labels} {cumulative}"
                        )
                    cumulative += series.counts[-1]
                    labels = _render_labels(
                        metric.label_names, key, extra='le="+Inf"'
                    )
                    lines.append(f"{metric.name}_bucket{labels} {cumulative}")
                    plain = _render_labels(metric.label_names, key)
                    lines.append(
                        f"{metric.name}_sum{plain} {_format_value(series.sum)}"
                    )
                    lines.append(f"{metric.name}_count{plain} {series.count}")
        return "\n".join(lines) + "\n"
