"""A small, thread-safe metrics registry with Prometheus exposition.

:class:`MetricsRegistry` holds three instrument families — monotonically
increasing :class:`Counter`\\ s, settable :class:`Gauge`\\ s, and
fixed-bucket :class:`Histogram`\\ s — keyed by metric name with optional
label dimensions.  It exports in two shapes:

* :meth:`MetricsRegistry.to_dict` — a JSON-safe snapshot (what the
  ``repro-obs`` CLI pretty-prints and diffs);
* :meth:`MetricsRegistry.render` — the Prometheus text exposition format
  served by ``GET /metrics`` on the service server and the cluster
  router.

The per-instance counters of the stats dataclasses (``EngineStats``,
``CacheStats``, ...) are not registry instruments: each of their fields
declares its metric kind and help through :func:`counter_field` or
:func:`gauge_field`, ``/stats`` serves them through
:func:`dataclasses.asdict`, and :func:`stats_samples` turns the same
snapshot into the extra samples :meth:`MetricsRegistry.render` appends,
so both endpoints read one declaration.

Design constraints, in order:

* **Cheap.**  Recording is one lock acquire plus a dict update (a bisect
  for histograms); instruments are resolved once and kept, so hot paths
  hold a direct reference instead of re-looking names up.  Nothing here
  allocates per observation.
* **Deterministic output.**  Export orders metrics by name and label
  values lexicographically — never by dict insertion or hash order — so
  two identical registries render byte-identical text.
* **Clock-injectable.**  The registry never reads a clock itself;
  :meth:`Histogram.time` takes one (default ``time.perf_counter``) so
  tests drive timings deterministically.  No timestamp is ever attached
  to a sample — exposition is stateless, and timing values never feed
  key material (reprolint TIME001's contract).
"""

from __future__ import annotations

import dataclasses
import threading
from bisect import bisect_left
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PROMETHEUS_CONTENT_TYPE",
    "Sample",
    "counter_field",
    "gauge_field",
    "parse_prometheus_text",
    "stats_samples",
]

#: The content type ``GET /metrics`` answers with (text exposition 0.0.4).
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Default latency buckets (seconds): 100µs .. 60s, roughly 1-2-5 spaced.
#: Values beyond the last bound land in the implicit ``+Inf`` overflow
#: bucket, so a histogram never loses an observation.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

LabelValues = Tuple[str, ...]

#: One externally collected series: ``(name, type, help, labels, value)``.
Sample = Tuple[str, str, str, Mapping[str, str], float]


def counter_field(help: str) -> Any:
    """A stats dataclass ``int`` field exported as a counter (``_total``)."""
    return dataclasses.field(default=0, metadata={"metric": ("counter", help)})


def gauge_field(help: str) -> Any:
    """A stats dataclass field exported as a point-in-time gauge."""
    return dataclasses.field(default=0, metadata={"metric": ("gauge", help)})


def stats_samples(
    prefix: str, snapshot: Any, labels: Optional[Mapping[str, str]] = None
) -> List[Sample]:
    """The samples of one stats dataclass snapshot, one per declared field.

    Field ``name`` becomes the series ``<prefix>_<name>``, with the
    ``_total`` suffix counters carry; the kind and help come from the
    field's :func:`counter_field` / :func:`gauge_field` declaration, and
    a field declaring neither raises :class:`KeyError`.
    """
    labels = dict(labels or {})
    samples: List[Sample] = []
    for field in dataclasses.fields(snapshot):
        kind, help = field.metadata["metric"]
        name = f"{prefix}_{field.name}"
        if kind == "counter" and not name.endswith("_total"):
            name += "_total"
        value = float(getattr(snapshot, field.name))
        samples.append((name, kind, help, labels, value))
    return samples


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _labels_text(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label(str(value))}"'
        for name, value in zip(names, values)
    )
    return "{" + inner + "}"


class _Instrument:
    """Shared child-management for labelled instrument families.

    A family declared with ``labels=("endpoint",)`` is a container of
    *children*, one per label-value tuple, created on demand under the
    family lock; a label-less family is its own single child.  Children
    are plain objects holding numbers — all mutation happens under the
    family lock, which instruments share with their children.
    """

    kind = ""

    def __init__(self, name: str, help: str, labels: Sequence[str] = ()) -> None:
        self.name = name
        self.help = help
        self.label_names: Tuple[str, ...] = tuple(labels)
        self._lock = threading.Lock()
        self._children: Dict[LabelValues, Any] = {}
        if not self.label_names:
            self._children[()] = self._new_child()

    def _new_child(self) -> Any:
        raise NotImplementedError

    def labels(self, **labels: str) -> Any:
        """The child for one label-value combination (created on demand)."""
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} declares labels {self.label_names!r}, "
                f"got {tuple(sorted(labels))!r}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._new_child()
                self._children[key] = child
        return child

    def _sorted_children(self) -> List[Tuple[LabelValues, Any]]:
        with self._lock:
            items = list(self._children.items())
        return sorted(items, key=lambda item: item[0])


class _CounterChild:
    __slots__ = ("value", "_lock")

    def __init__(self, lock: threading.Lock) -> None:
        self.value = 0.0
        self._lock = lock

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount!r}")
        with self._lock:
            self.value += amount


class Counter(_Instrument):
    """A monotonically increasing value (requests served, bytes read, ...)."""

    kind = "counter"

    def _new_child(self) -> _CounterChild:
        return _CounterChild(self._lock)

    def inc(self, amount: float = 1.0) -> None:
        """Increment the label-less child (family must declare no labels)."""
        self._children[()].inc(amount)


class _GaugeChild:
    __slots__ = ("value", "_lock")

    def __init__(self, lock: threading.Lock) -> None:
        self.value = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value -= amount


class Gauge(_Instrument):
    """A value that can go up and down (pending requests, cache bytes, ...)."""

    kind = "gauge"

    def _new_child(self) -> _GaugeChild:
        return _GaugeChild(self._lock)

    def set(self, value: float) -> None:
        self._children[()].set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._children[()].inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._children[()].dec(amount)


class _HistogramChild:
    __slots__ = ("counts", "sum", "count", "_bounds", "_lock")

    def __init__(self, bounds: Sequence[float], lock: threading.Lock) -> None:
        # One slot per finite bound plus the +Inf overflow bucket.
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self._bounds = bounds
        self._lock = lock

    def observe(self, value: float) -> None:
        index = bisect_left(self._bounds, value)
        with self._lock:
            self.counts[index] += 1
            self.sum += value
            self.count += 1


class _HistogramTimer:
    """``with histogram.time():`` — observes the elapsed clock on exit."""

    __slots__ = ("_child", "_clock", "_start")

    def __init__(self, child: _HistogramChild, clock: Callable[[], float]) -> None:
        self._child = child
        self._clock = clock

    def __enter__(self) -> "_HistogramTimer":
        self._start = self._clock()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._child.observe(self._clock() - self._start)


class Histogram(_Instrument):
    """A fixed-bucket distribution (latencies, batch sizes, ...).

    ``buckets`` lists the finite upper bounds in increasing order; an
    implicit ``+Inf`` overflow bucket always follows, so no observation
    is dropped however large.  Exposition follows the Prometheus
    histogram convention: cumulative ``_bucket{le=...}`` series plus
    ``_sum`` and ``_count``.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labels: Sequence[str] = (),
        *,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        clock: Callable[[], float] = None,  # type: ignore[assignment]
    ) -> None:
        bounds = tuple(float(bound) for bound in buckets)
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"bucket bounds must strictly increase, got {bounds!r}")
        self.bounds = bounds
        if clock is None:
            import time

            clock = time.perf_counter
        self._clock = clock
        super().__init__(name, help, labels)

    def _new_child(self) -> _HistogramChild:
        return _HistogramChild(self.bounds, self._lock)

    def observe(self, value: float) -> None:
        """Record into the label-less child."""
        self._children[()].observe(value)

    def time(self) -> _HistogramTimer:
        """Context manager observing the elapsed (injectable) clock."""
        return _HistogramTimer(self._children[()], self._clock)


class MetricsRegistry:
    """A named collection of counters, gauges, and histograms.

    Declaring the same name twice returns the existing instrument when
    the declaration matches (same kind, labels, buckets) and raises
    otherwise — modules can therefore idempotently declare the metrics
    they record without coordinating import order.
    """

    def __init__(self, *, clock: Callable[[], float] = None) -> None:  # type: ignore[assignment]
        if clock is None:
            import time

            clock = time.perf_counter
        self._clock = clock
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Instrument] = {}

    # ------------------------------------------------------------------
    # Declaration
    # ------------------------------------------------------------------
    def counter(self, name: str, help: str, labels: Sequence[str] = ()) -> Counter:
        return self._declare(Counter, name, help, labels)

    def gauge(self, name: str, help: str, labels: Sequence[str] = ()) -> Gauge:
        return self._declare(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str,
        labels: Sequence[str] = (),
        *,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if (
                    not isinstance(existing, Histogram)
                    or existing.label_names != tuple(labels)
                    or existing.bounds != tuple(float(bound) for bound in buckets)
                ):
                    raise ValueError(
                        f"metric {name!r} is already declared with a "
                        "different kind, labels, or buckets"
                    )
                return existing
            metric = Histogram(name, help, labels, buckets=buckets, clock=self._clock)
            self._metrics[name] = metric
            return metric

    def _declare(
        self, cls: type, name: str, help: str, labels: Sequence[str]
    ) -> Any:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.label_names != tuple(labels):
                    raise ValueError(
                        f"metric {name!r} is already declared with a "
                        "different kind or labels"
                    )
                return existing
            metric = cls(name, help, labels)
            self._metrics[name] = metric
            return metric

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def _sorted_metrics(self) -> List[_Instrument]:
        with self._lock:
            metrics = list(self._metrics.values())
        return sorted(metrics, key=lambda metric: metric.name)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe snapshot: ``{name: {type, help, values: [...]}}``."""
        snapshot: Dict[str, Any] = {}
        for metric in self._sorted_metrics():
            values: List[Dict[str, Any]] = []
            for key, child in metric._sorted_children():
                labels = dict(zip(metric.label_names, key))
                if isinstance(child, _HistogramChild):
                    values.append(
                        {
                            "labels": labels,
                            "count": child.count,
                            "sum": child.sum,
                            "buckets": {
                                _format_value(bound): count
                                for bound, count in zip(
                                    list(metric.bounds) + [float("inf")],
                                    _cumulative(child.counts),
                                )
                            },
                        }
                    )
                else:
                    values.append({"labels": labels, "value": child.value})
            snapshot[metric.name] = {
                "type": metric.kind,
                "help": metric.help,
                "values": values,
            }
        return snapshot

    def render(self, extra_samples: Iterable[Sample] = ()) -> str:
        """The Prometheus text exposition of every metric.

        ``extra_samples`` appends externally collected series — tuples of
        ``(name, type, help, labels, value)`` — grouped by name after the
        registry's own metrics: the stats dataclasses' declared counters
        (see :func:`stats_samples`) and, on the router, the series it
        scraped from its replicas.
        """
        lines: List[str] = []
        for metric in self._sorted_metrics():
            lines.append(f"# HELP {metric.name} {_escape_help(metric.help)}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            for key, child in metric._sorted_children():
                if isinstance(child, _HistogramChild):
                    lines.extend(self._render_histogram(metric, key, child))
                else:
                    labels = _labels_text(metric.label_names, key)
                    lines.append(
                        f"{metric.name}{labels} {_format_value(child.value)}"
                    )
        grouped: "Dict[str, List[Tuple[str, Mapping[str, str], float]]]" = {}
        helps: Dict[str, Tuple[str, str]] = {}
        for name, kind, help, labels, value in extra_samples:
            grouped.setdefault(name, []).append((kind, labels, value))
            helps.setdefault(name, (kind, help))
        for name in sorted(grouped):
            kind, help = helps[name]
            lines.append(f"# HELP {name} {_escape_help(help)}")
            lines.append(f"# TYPE {name} {kind}")
            for _, labels, value in sorted(
                grouped[name], key=lambda item: sorted(item[1].items())
            ):
                names = sorted(labels)
                text = _labels_text(names, [labels[label] for label in names])
                lines.append(f"{name}{text} {_format_value(value)}")
        return "\n".join(lines) + "\n" if lines else ""

    @staticmethod
    def _render_histogram(
        metric: Histogram, key: LabelValues, child: _HistogramChild
    ) -> List[str]:
        lines: List[str] = []
        cumulative = _cumulative(child.counts)
        bounds = list(metric.bounds) + [float("inf")]
        for bound, count in zip(bounds, cumulative):
            names = list(metric.label_names) + ["le"]
            values = list(key) + [_format_value(bound)]
            lines.append(f"{metric.name}_bucket{_labels_text(names, values)} {count}")
        labels = _labels_text(metric.label_names, key)
        lines.append(f"{metric.name}_sum{labels} {_format_value(child.sum)}")
        lines.append(f"{metric.name}_count{labels} {child.count}")
        return lines


def _cumulative(counts: Sequence[int]) -> List[int]:
    total = 0
    out: List[int] = []
    for count in counts:
        total += count
        out.append(total)
    return out


def parse_prometheus_text(
    text: str,
) -> Tuple[List[Tuple[str, Dict[str, str], float]], Dict[str, str], Dict[str, str]]:
    """Parse Prometheus text exposition into ``(samples, types, helps)``.

    ``samples`` is a list of ``(name, labels, value)``; ``types`` and
    ``helps`` map metric names to their ``# TYPE`` / ``# HELP`` lines.
    Used by the router to aggregate replica registries under per-replica
    labels, and by tests and the CI smoke job to assert the endpoint
    serves well-formed text.  Raises :class:`ValueError` on lines that
    are neither comments, blanks, nor valid samples.
    """
    samples: List[Tuple[str, Dict[str, str], float]] = []
    types: Dict[str, str] = {}
    helps: Dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            parts = line.split(None, 3)
            if len(parts) < 4:
                raise ValueError(f"malformed TYPE line: {raw!r}")
            types[parts[2]] = parts[3]
            continue
        if line.startswith("# HELP "):
            parts = line.split(None, 3)
            if len(parts) < 3:
                raise ValueError(f"malformed HELP line: {raw!r}")
            helps[parts[2]] = parts[3] if len(parts) > 3 else ""
            continue
        if line.startswith("#"):
            continue
        samples.append(_parse_sample(line))
    return samples, types, helps


def _parse_sample(line: str) -> Tuple[str, Dict[str, str], float]:
    labels: Dict[str, str] = {}
    if "{" in line:
        name, _, rest = line.partition("{")
        body, closed, tail = rest.partition("}")
        if not closed:
            raise ValueError(f"unterminated label set: {line!r}")
        labels = _parse_labels(body)
        value_text = tail.strip()
    else:
        name, _, value_text = line.partition(" ")
        value_text = value_text.strip()
    name = name.strip()
    if not name or not value_text:
        raise ValueError(f"malformed sample line: {line!r}")
    # A timestamp may trail the value; the first token is the value.
    value_token = value_text.split()[0]
    if value_token == "+Inf":
        value = float("inf")
    elif value_token == "-Inf":
        value = float("-inf")
    else:
        value = float(value_token)
    return name, labels, value


def _parse_labels(body: str) -> Dict[str, str]:
    labels: Dict[str, str] = {}
    index = 0
    while index < len(body):
        equals = body.index("=", index)
        name = body[index:equals].strip().lstrip(",").strip()
        if body[equals + 1] != '"':
            raise ValueError(f"unquoted label value in {body!r}")
        cursor = equals + 2
        value_chars: List[str] = []
        while cursor < len(body):
            char = body[cursor]
            if char == "\\" and cursor + 1 < len(body):
                escape = body[cursor + 1]
                value_chars.append(
                    {"n": "\n", "\\": "\\", '"': '"'}.get(escape, escape)
                )
                cursor += 2
                continue
            if char == '"':
                break
            value_chars.append(char)
            cursor += 1
        labels[name] = "".join(value_chars)
        index = cursor + 1
    return labels
