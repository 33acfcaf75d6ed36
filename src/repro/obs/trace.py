"""Request tracing: contextvar-carried traces with per-span wall/CPU time.

One :class:`Trace` follows one request through the stack — service →
engine → backend → compiled kernel — collecting
:class:`Span` records (name, start offset, wall seconds, CPU seconds).
The active trace rides a :mod:`contextvars` variable, so instrumented
code anywhere below simply calls :func:`span`:

    with span("engine.prepare"):
        ...

When no trace is active (the default), :func:`span` returns a shared
no-op context manager after a single contextvar read — the disabled cost
the service bench's overhead gate holds under 2%.

Traces cross thread, process and host boundaries explicitly:

* **Executor threads**: the HTTP server runs each blocking service call
  through :func:`run_with_trace`, so a cache miss — evaluated on that
  thread — records its engine spans into the request's own trace.
* **HTTP hops** (client → server, router → replica) propagate the trace
  id in the ``X-Repro-Trace`` header (:func:`format_header` /
  :func:`parse_header`), so one id spans router → replica → engine.

Determinism: trace ids and span timings are response *metadata*.  They
never feed seeds, fingerprints, cache keys, or checksums — timings ride
outside the cached payload, and ``results_checksum`` strips timing
fields anyway (reprolint TIME001 extends to the monotonic clocks spans
use).
"""

from __future__ import annotations

import contextvars
import logging
import threading
import time
import uuid
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional

from repro.obs.metrics import counter_field

__all__ = [
    "Span",
    "SlowQueryLog",
    "SlowQueryStats",
    "TRACE_HEADER",
    "Trace",
    "activate",
    "current_trace",
    "disable",
    "enable",
    "enabled",
    "format_header",
    "new_trace",
    "parse_header",
    "run_with_trace",
    "span",
]

#: The propagation header: its value is the (hex) trace id.
TRACE_HEADER = "X-Repro-Trace"

_current: "contextvars.ContextVar[Optional[Trace]]" = contextvars.ContextVar(
    "repro_obs_trace", default=None
)

#: Process-wide kill switch.  The servers consult it before *creating*
#: traces; instrumented code below needs no check (no trace → no-op spans).
_enabled = True

#: Bound on spans kept per trace — a runaway loop inside a traced request
#: degrades to dropped spans, never unbounded memory.
_MAX_SPANS = 512


def enable() -> None:
    """Allow servers to create traces (the default)."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Refuse new traces process-wide (requests still answer, untraced)."""
    global _enabled
    _enabled = False


def enabled() -> bool:
    """Whether tracing is switched on process-wide."""
    return _enabled


@dataclass
class Span:
    """One timed stage of a trace.

    ``start_offset`` is seconds since the trace began (monotonic clock),
    so a span list reads as a timeline; ``cpu_seconds`` is process CPU
    time (``time.process_time``), which a stitched remote span may not
    know (``None``).
    """

    name: str
    start_offset: float
    wall_seconds: float
    cpu_seconds: Optional[float]

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "name": self.name,
            "start_ms": round(self.start_offset * 1000.0, 3),
            "wall_ms": round(self.wall_seconds * 1000.0, 3),
        }
        if self.cpu_seconds is not None:
            payload["cpu_ms"] = round(self.cpu_seconds * 1000.0, 3)
        return payload


class _SpanContext:
    """The live ``with span(...)`` context manager."""

    __slots__ = ("_trace", "_name", "_wall0", "_cpu0")

    def __init__(self, trace: "Trace", name: str) -> None:
        self._trace = trace
        self._name = name

    def __enter__(self) -> "_SpanContext":
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, *exc_info: object) -> None:
        wall1 = time.perf_counter()
        self._trace._record(
            self._name,
            self._wall0,
            wall1 - self._wall0,
            time.process_time() - self._cpu0,
        )


class _NullSpan:
    """The shared no-op returned when no trace is active."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Trace:
    """One request's span collection, identified by a hex trace id."""

    __slots__ = ("trace_id", "_start", "_spans", "_lock", "_dropped")

    def __init__(self, trace_id: Optional[str] = None) -> None:
        self.trace_id = trace_id if trace_id else uuid.uuid4().hex
        self._start = time.perf_counter()
        self._spans: List[Span] = []
        self._lock = threading.Lock()
        self._dropped = 0

    def span(self, name: str) -> _SpanContext:
        """A context manager timing one named stage into this trace."""
        return _SpanContext(self, name)

    def _record(
        self, name: str, wall0: float, wall: float, cpu: Optional[float]
    ) -> None:
        with self._lock:
            if len(self._spans) >= _MAX_SPANS:
                self._dropped += 1
                return
            self._spans.append(Span(name, wall0 - self._start, wall, cpu))

    def spans(self) -> List[Span]:
        """An ordered snapshot (by start offset) of the recorded spans."""
        with self._lock:
            spans = list(self._spans)
        return sorted(spans, key=lambda item: item.start_offset)

    def to_dict(self) -> Dict[str, Any]:
        """The opt-in ``timings`` section of a query response."""
        with self._lock:
            spans = list(self._spans)
            dropped = self._dropped
        spans.sort(key=lambda item: item.start_offset)
        payload: Dict[str, Any] = {
            "trace_id": self.trace_id,
            "spans": [item.to_dict() for item in spans],
        }
        if dropped:
            payload["dropped_spans"] = dropped
        return payload


def current_trace() -> Optional[Trace]:
    """The trace active in this execution context, if any."""
    return _current.get()


def span(name: str):
    """Time one stage into the active trace; free no-op when untraced."""
    trace = _current.get()
    if trace is None:
        return _NULL_SPAN
    return trace.span(name)


def new_trace(trace_id: Optional[str] = None) -> Optional[Trace]:
    """A fresh :class:`Trace` honouring the process-wide switch."""
    if not _enabled:
        return None
    return Trace(trace_id)


class _Activation:
    __slots__ = ("_trace", "_token")

    def __init__(self, trace: Optional[Trace]) -> None:
        self._trace = trace

    def __enter__(self) -> Optional[Trace]:
        self._token = _current.set(self._trace)
        return self._trace

    def __exit__(self, *exc_info: object) -> None:
        _current.reset(self._token)


def activate(trace: Optional[Trace]) -> _Activation:
    """``with activate(trace):`` — make ``trace`` current in this context.

    Accepts ``None`` (a no-op activation), so callers can write one
    ``with`` regardless of whether tracing is on.
    """
    return _Activation(trace)


def run_with_trace(trace: Optional[Trace], fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """Call ``fn`` with ``trace`` active — the executor-thread bridge.

    ``loop.run_in_executor`` does not carry contextvars to the worker
    thread, so the server wraps blocking service calls through this.
    """
    with activate(trace):
        return fn(*args, **kwargs)


def parse_header(value: Optional[str]) -> Optional[str]:
    """Validate an ``X-Repro-Trace`` header value into a trace id.

    Accepts 8–64 hex characters (case-insensitive); anything else is
    treated as absent so a garbage header can never poison responses.
    """
    if not value:
        return None
    candidate = value.strip().lower()
    if 8 <= len(candidate) <= 64 and all(c in "0123456789abcdef" for c in candidate):
        return candidate
    return None


def format_header(trace: Trace) -> str:
    """The header value propagating ``trace`` across an HTTP hop."""
    return trace.trace_id


@dataclass
class SlowQueryStats:
    """Counters of one :class:`SlowQueryLog`."""

    total: int = counter_field("Served queries slower than the slow-query threshold.")


class SlowQueryLog:
    """Log queries slower than a threshold, keeping the last few around.

    Emits one :mod:`logging` warning per slow query on the
    ``repro.obs.slowquery`` logger and retains a bounded ring of recent
    entries for ``/stats``-style introspection.  Thread-safe; recording
    a fast query is one comparison.
    """

    def __init__(self, threshold_seconds: float, *, keep: int = 32) -> None:
        if threshold_seconds <= 0:
            raise ValueError(
                f"slow-query threshold must be > 0 seconds, got {threshold_seconds!r}"
            )
        if keep <= 0:
            raise ValueError(f"keep must be >= 1, got {keep!r}")
        self.threshold_seconds = threshold_seconds
        self._keep = keep
        self._lock = threading.Lock()
        self._recent: List[Dict[str, Any]] = []
        self._stats = SlowQueryStats()
        self._logger = logging.getLogger("repro.obs.slowquery")

    def record(
        self,
        *,
        graph: str,
        kind: str,
        elapsed_seconds: float,
        trace_id: Optional[str] = None,
        cached: bool = False,
    ) -> bool:
        """Record one served query; returns whether it was slow."""
        if elapsed_seconds < self.threshold_seconds:
            return False
        entry = {
            "graph": graph,
            "kind": kind,
            "elapsed_ms": round(elapsed_seconds * 1000.0, 3),
            "cached": cached,
            "trace_id": trace_id,
        }
        with self._lock:
            self._stats.total += 1
            self._recent.append(entry)
            if len(self._recent) > self._keep:
                del self._recent[0]
        self._logger.warning(
            "slow query: graph=%s kind=%s elapsed=%.1fms cached=%s trace=%s",
            graph,
            kind,
            elapsed_seconds * 1000.0,
            cached,
            trace_id or "-",
        )
        return True

    def snapshot(self) -> Dict[str, Any]:
        """``{threshold_seconds, total, recent}`` for introspection."""
        with self._lock:
            return {
                "threshold_seconds": self.threshold_seconds,
                "total": self._stats.total,
                "recent": list(self._recent),
            }

    def stats(self) -> SlowQueryStats:
        """An independent snapshot of the slow-query counter."""
        with self._lock:
            return replace(self._stats)
