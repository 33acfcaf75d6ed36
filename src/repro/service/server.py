"""The JSON-over-HTTP network front-end (stdlib asyncio only).

A deliberately small HTTP/1.1 server exposing the service over seven
endpoints, all speaking the existing wire formats
(:func:`~repro.engine.queries.query_from_dict` /
:func:`~repro.engine.queries.result_from_dict` /
:func:`~repro.engine.deltas.delta_from_dict`):

=========================  =============================================
``GET /healthz``           liveness probe (name, registered graph count)
``GET /graphs``            the catalog: names, fingerprints, versions
``GET /stats``             service + cache + coalescer + engine counters
``GET /metrics``           Prometheus text exposition (registry + the
                           declared ``/stats`` counters)
``POST /query``            ``{"graph": name, "query": Query.to_dict()}``
``POST /query_batch``      ``{"graph": name, "queries": [...]}``
``POST /update``           ``{"graph": name, "delta": DeltaOp.to_dict()}``
=========================  =============================================

Requests may carry an ``X-Repro-Trace`` header (a hex trace id); traced
``/query`` requests run under a :class:`~repro.obs.trace.Trace` and —
when the body asks with ``{"timings": true}`` — answer with a per-stage
``"timings"`` section.  Without the header a fresh trace id is minted
for timing-requesting bodies, so ``timings`` works standalone too.

A ``/query`` is first looked up in the memory tier on the event loop
(:meth:`~repro.service.core.ReliabilityService.lookup`, which never
touches sqlite or the engine), and a hit is answered there: it takes no
admission slot and never waits behind an evaluation.  Everything else —
a memory miss (shared tier, then evaluation), ``/query_batch`` and
``/update`` — runs on a bounded thread pool (``max_inflight`` threads)
so the loop never blocks on engine work; a miss is evaluated on the
pool thread that serves it, under the request's trace (see
:func:`~repro.obs.trace.run_with_trace`).  Requests beyond the pool plus
a bounded wait queue are rejected with **429** and a ``Retry-After``
header — admission control, so overload degrades into fast rejections
instead of unbounded queueing (updates count against the same budget).
Reading requests, status codes and the response format belong to the
shared :mod:`repro.service.frontend`, which the cluster router also runs
on.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from functools import partial
from typing import Any, Dict, Optional, Tuple

from repro.exceptions import ConfigurationError, ReproError, UpdateRejectedError
from repro.obs import get_registry
from repro.obs.metrics import MetricsRegistry, counter_field, gauge_field, stats_samples
from repro.obs.trace import TRACE_HEADER, new_trace, parse_header, run_with_trace
from repro.service.core import ReliabilityService
from repro.service.frontend import MAX_BODY_BYTES, HttpFrontEnd, Response, json_object
from repro.utils.validation import check_positive_int

__all__ = ["AdmissionStats", "MAX_BODY_BYTES", "ServiceServer"]


@dataclass
class AdmissionStats:
    """Admission-control counters of one :class:`ServiceServer`."""

    accepted: int = counter_field("Requests admitted to the evaluation pool.")
    rejected: int = counter_field("Requests shed with 429 by admission control.")
    peak_pending: int = gauge_field("Most requests ever admitted at once.")
    pending: int = gauge_field("Requests admitted and not yet answered.")
    max_pending: int = gauge_field(
        "Admission bound: evaluation threads plus the wait queue."
    )


class ServiceServer(HttpFrontEnd):
    """Serve a :class:`ReliabilityService` over JSON/HTTP.

    Parameters
    ----------
    service:
        The blocking serving core.
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (read it back
        from :attr:`port` once started — how tests and the benchmark run
        without port collisions).
    max_inflight:
        Evaluation threads — query requests evaluated concurrently.
    queue_limit:
        Accepted-but-waiting query requests beyond ``max_inflight``;
        anything above ``max_inflight + queue_limit`` is rejected 429.
    request_timeout:
        Upper bound (seconds) one query request may spend waiting on the
        service before answering 500.
    registry:
        The :class:`~repro.obs.metrics.MetricsRegistry` backing
        ``GET /metrics``; defaults to the process-global one.  The
        server records per-path request latencies and response counts
        into it; the counters ``/stats`` serves are appended at scrape
        time from the same declared snapshots (see
        :func:`~repro.obs.metrics.stats_samples`), so both endpoints
        always agree.
    """

    _not_started_error = ConfigurationError
    _thread_name = "repro-service-server"

    def __init__(
        self,
        service: ReliabilityService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 8,
        queue_limit: int = 32,
        request_timeout: float = 300.0,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        check_positive_int(max_inflight, "max_inflight")
        if queue_limit < 0:
            raise ConfigurationError(f"queue_limit must be >= 0, got {queue_limit}")
        self._service = service
        self._request_timeout = request_timeout
        self._executor = ThreadPoolExecutor(
            max_workers=max_inflight, thread_name_prefix="repro-serve"
        )
        self._admission = AdmissionStats(max_pending=max_inflight + queue_limit)
        self._admission_lock = threading.Lock()
        self._registry = registry if registry is not None else get_registry()
        super().__init__(
            {
                "/healthz": ("GET", self._healthz),
                "/graphs": ("GET", self._graphs),
                "/stats": ("GET", self._stats),
                "/metrics": ("GET", self._metrics),
                "/query": ("POST", partial(self._handle_query, "/query")),
                "/query_batch": ("POST", partial(self._handle_query, "/query_batch")),
                "/update": ("POST", self._handle_update),
            },
            host=host,
            port=port,
            request_seconds=self._registry.histogram(
                "repro_http_request_seconds",
                "Wall-clock latency of handled HTTP requests.",
                labels=("path",),
            ),
            responses_total=self._registry.counter(
                "repro_http_responses_total",
                "HTTP responses by path and status code.",
                labels=("path", "status"),
            ),
        )

    def close(self) -> None:
        """Stop accepting, stop the loop thread, release the thread pool."""
        super().close()
        self._executor.shutdown(wait=False)

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    async def _healthz(self, body: bytes, headers: Dict[str, str]) -> Response:
        return 200, {"status": "ok", "graphs": len(self._service.catalog.names())}

    async def _graphs(self, body: bytes, headers: Dict[str, str]) -> Response:
        return 200, {"graphs": self._service.describe_graphs()}

    async def _stats(self, body: bytes, headers: Dict[str, str]) -> Response:
        stats = self._service.stats()
        stats["admission"] = asdict(self._admission_snapshot())
        return 200, stats

    async def _metrics(self, body: bytes, headers: Dict[str, str]) -> Response:
        """The ``GET /metrics`` text: registry + the ``/stats`` counters."""
        samples = self._service.metric_samples()
        samples += stats_samples("repro_admission", self._admission_snapshot())
        return 200, self._registry.render(extra_samples=samples)

    def _admission_snapshot(self) -> AdmissionStats:
        with self._admission_lock:
            return replace(self._admission)

    def _try_admit(self) -> Optional[Tuple[int, Dict[str, Any]]]:
        """Claim an admission slot; the 429 response when none is free.

        Admission control: accept at most ``max_inflight`` executing plus
        ``queue_limit`` waiting requests; shed the rest immediately.  The
        caller must balance a successful claim with :meth:`_release`.
        """
        with self._admission_lock:
            admission = self._admission
            if admission.pending >= admission.max_pending:
                admission.rejected += 1
                return 429, {
                    "error": "service overloaded; retry later",
                    "pending": admission.pending,
                }
            admission.pending += 1
            admission.accepted += 1
            admission.peak_pending = max(admission.peak_pending, admission.pending)
        return None

    def _release(self) -> None:
        with self._admission_lock:
            self._admission.pending -= 1

    async def _handle_query(
        self, path: str, body: bytes, headers: Dict[str, str]
    ) -> Response:
        try:
            payload = json_object(body)
            graph = payload["graph"]
        except (ValueError, KeyError) as error:
            return 400, {"error": f"bad request body: {error}"}

        # A trace exists only when the client asked for one — by header
        # (router/replica propagation) or by requesting timings — so
        # untraced traffic pays nothing beyond this lookup.
        trace_id = parse_header(headers.get(TRACE_HEADER.lower()))
        want_timings = bool(payload.get("timings"))
        trace = new_trace(trace_id) if (trace_id or want_timings) else None

        if path == "/query":
            if "query" not in payload:
                return 400, {"error": "missing 'query' field"}
            # The memory tier answers here, on the loop: a hit takes no
            # admission slot and never waits for an evaluation thread.  A
            # miss is counted only once admitted, by the continuation.
            try:
                response, pending = run_with_trace(
                    trace,
                    self._service.lookup,
                    graph,
                    payload["query"],
                    timings=want_timings,
                )
            except Exception as error:
                return _error_response(error)
            if response is not None:
                return 200, response
            # run_with_trace: run_in_executor does not carry the
            # contextvar to the worker thread.
            work = partial(
                run_with_trace,
                trace,
                self._service.query,
                graph,
                pending,
                timeout=self._request_timeout,
                timings=want_timings,
            )
        else:
            queries = payload.get("queries")
            if not isinstance(queries, list):
                return 400, {"error": "missing 'queries' list"}
            work = partial(
                run_with_trace,
                trace,
                self._service.query_batch,
                graph,
                queries,
                timeout=self._request_timeout,
            )

        rejected = self._try_admit()
        if rejected is not None:
            return rejected
        try:
            result = await asyncio.get_running_loop().run_in_executor(
                self._executor, work
            )
        except Exception as error:
            return _error_response(error)
        finally:
            self._release()
        if path == "/query":
            return 200, result
        return 200, {"graph": graph, "results": result}

    async def _handle_update(self, body: bytes, headers: Dict[str, str]) -> Response:
        try:
            payload = json_object(body)
            graph = payload["graph"]
            delta = payload["delta"]
        except (ValueError, KeyError) as error:
            return 400, {"error": f"bad request body: {error}"}

        rejected = self._try_admit()
        if rejected is not None:
            return rejected
        try:
            result = await asyncio.get_running_loop().run_in_executor(
                self._executor, self._service.update, graph, delta
            )
        except UpdateRejectedError as error:
            return 403, {"error": str(error), "error_type": type(error).__name__}
        except Exception as error:
            return _error_response(error)
        finally:
            self._release()
        return 200, result


def _error_response(error: Exception) -> Response:
    """400 for a client error the service raised, 500 for anything else."""
    status = 400 if isinstance(error, ReproError) else 500
    return status, {"error": str(error), "error_type": type(error).__name__}
