"""Unified observability: metrics registry, request tracing, exposition.

Three pieces (see the submodules for detail):

* :mod:`repro.obs.metrics` — a thread-safe :class:`MetricsRegistry` of
  counters, gauges, and fixed-bucket histograms, exported as JSON or
  Prometheus text, plus the field declarations of the per-instance stats
  dataclasses (``counter_field`` / ``gauge_field``) and
  ``stats_samples``, which renders a declared snapshot as samples;
* :mod:`repro.obs.trace` — :class:`Trace`/:class:`Span` request tracing
  over contextvars, propagated across HTTP hops via ``X-Repro-Trace``,
  plus the :class:`SlowQueryLog`;
* :mod:`repro.obs.cli` — the ``repro-obs`` snapshot viewer and differ.

The process-global default registry (:func:`get_registry`) holds the
process-wide instruments (HTTP latency and responses, router latency,
S²BDD construction time) and is what ``GET /metrics`` renders.  The
per-instance counters ``/stats`` serves (engine, caches, coalescer,
service, admission, router) stay on their owners' dataclasses, and
both endpoints read them through the same field declarations.  Tests
build private :class:`MetricsRegistry` instances.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    PROMETHEUS_CONTENT_TYPE,
    parse_prometheus_text,
)
from repro.obs.trace import (
    SlowQueryLog,
    Span,
    TRACE_HEADER,
    Trace,
    activate,
    current_trace,
    format_header,
    new_trace,
    parse_header,
    run_with_trace,
    span,
)

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PROMETHEUS_CONTENT_TYPE",
    "SlowQueryLog",
    "Span",
    "TRACE_HEADER",
    "Trace",
    "activate",
    "current_trace",
    "format_header",
    "get_registry",
    "new_trace",
    "parse_header",
    "parse_prometheus_text",
    "run_with_trace",
    "set_registry",
    "span",
]

_registry: Optional[MetricsRegistry] = None


def get_registry() -> MetricsRegistry:
    """The process-global default registry (created on first use)."""
    global _registry
    if _registry is None:
        _registry = MetricsRegistry()
    return _registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-global registry (tests isolate themselves here)."""
    global _registry
    _registry = registry
    return registry
